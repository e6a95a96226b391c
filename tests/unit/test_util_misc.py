"""Unit tests for rng streams and sim logging."""

import pytest

from repro.util.rng import RandomStreams
from repro.util.simlog import LogRecord, SimLogger


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

    def test_spawn_derives_new_family(self):
        s = RandomStreams(5)
        child = s.spawn("run-1")
        assert child.seed != s.seed
        assert (child.get("a").random(3) != s.get("a").random(3)).any()

    def test_spawn_deterministic(self):
        assert RandomStreams(5).spawn("r").seed == RandomStreams(5).spawn("r").seed

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams("seed")  # type: ignore[arg-type]

    def test_names_sorted(self):
        s = RandomStreams(0)
        s.get("z"), s.get("a")
        assert s.names() == ["a", "z"]


class TestSimLogger:
    def make(self, **kw):
        self.t = 0.0
        return SimLogger(lambda: self.t, **kw)

    def test_records_stamped_with_clock(self):
        log = self.make()
        self.t = 12.5
        log.info("src", "hello")
        assert log.records[0].time == 12.5

    def test_level_filtering(self):
        log = self.make(level="WARNING")
        log.info("src", "dropped")
        log.warning("src", "kept")
        assert [r.message for r in log.records] == ["kept"]

    def test_set_level(self):
        log = self.make(level="ERROR")
        log.set_level("DEBUG")
        log.debug("src", "now visible")
        assert len(log.records) == 1

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            self.make(level="LOUD")
        log = self.make()
        with pytest.raises(ValueError):
            log.set_level("LOUD")

    def test_capacity_drops_oldest(self):
        log = self.make()
        log.capacity = 3
        for i in range(5):
            log.info("src", f"m{i}")
        assert [r.message for r in log.records] == ["m2", "m3", "m4"]

    def test_select_by_level(self):
        log = self.make(level="DEBUG")
        log.info("a", "xx hit")
        log.info("b", "xx hit")
        log.error("a", "miss")
        assert len(log.select()) == 3
        assert [r.message for r in log.select(level="ERROR")] == ["miss"]

    def test_format_includes_fields(self):
        rec = LogRecord(1.0, "INFO", "src", "msg", {"k": 3})
        assert "k=3" in rec.format()

    def test_dump_joins_lines(self):
        log = self.make()
        log.info("s", "one")
        log.info("s", "two")
        assert log.dump().count("\n") == 1

