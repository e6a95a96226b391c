"""Unit tests for rng streams and sim logging."""

import pytest

from repro.util.rng import RandomStreams
from repro.util.simlog import SimLogger


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a, b = RandomStreams(7).get("net"), RandomStreams(7).get("net")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_independent(self):
        s = RandomStreams(7)
        a, b = s.get("a"), s.get("b")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_creation_order_irrelevant(self):
        s1 = RandomStreams(3)
        x = s1.get("x")
        for _ in range(10):
            x.random()
        y1 = s1.get("y")
        y2 = RandomStreams(3).get("y")
        assert [y1.random() for _ in range(3)] == [y2.random() for _ in range(3)]

    def test_get_returns_same_generator(self):
        s = RandomStreams(1)
        assert s.get("a") is s.get("a")

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams("seed")  # type: ignore[arg-type]

    def test_negative_seed_is_its_own_family(self):
        assert RandomStreams(-3).get("net").random() != RandomStreams(3).get("net").random()

    def test_draws_are_pinned(self):
        """Every committed golden rests on these values: a change of
        interpreter or of the derivations in ``util/rng.py`` that moves a
        draw fails here by name, before it moves a golden."""
        net = RandomStreams(7).get("net")
        assert [net.random() for _ in range(3)] == [
            0.24847899763388304, 0.5012629658137691, 0.7330848633258041]

        def fresh():  # each adapter maps the same first u = 0.2484...
            return RandomStreams(7).get("net")

        assert fresh().exponential(2.0) == 0.5713122458386465
        assert fresh().uniform(1.0, 3.0) == 1.496957995267766
        assert fresh().integers(10) == 2
        assert fresh().pareto(1.5) == 0.20977865760907277


class TestSimLogger:
    def make(self):
        self.t = 0.0
        return SimLogger(lambda: self.t)

    def test_records_stamped_with_clock(self):
        log = self.make()
        self.t = 12.5
        log.warning("src", "hello")
        assert log.records[0].time == 12.5

    def test_capacity_drops_oldest(self):
        log = self.make()
        log.capacity = 3
        for i in range(5):
            log.warning("src", f"m{i}")
        assert [r.message for r in log.records] == ["m2", "m3", "m4"]
