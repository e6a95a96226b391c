"""Unit tests for rng streams and sim logging."""

import pytest

from repro.util.rng import RandomStreams
from repro.util.simlog import SimLogger


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(7).get("net").random(5)
        b = RandomStreams(7).get("net").random(5)
        assert (a == b).all()

    def test_different_names_independent(self):
        s = RandomStreams(7)
        assert (s.get("a").random(5) != s.get("b").random(5)).any()

    def test_creation_order_irrelevant(self):
        s1 = RandomStreams(3)
        _ = s1.get("x").random(10)
        v1 = s1.get("y").random(3)
        s2 = RandomStreams(3)
        v2 = s2.get("y").random(3)
        assert (v1 == v2).all()

    def test_get_returns_same_generator(self):
        s = RandomStreams(1)
        assert s.get("a") is s.get("a")

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams("seed")  # type: ignore[arg-type]


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
