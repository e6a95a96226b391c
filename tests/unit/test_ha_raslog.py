"""Tests for the RAS metric collector against known-answer schedules."""

import pytest

from repro.cluster import Cluster
from repro.faults import FaultInjector, FaultSchedule
from repro.ha.raslog import RASCollector


def make(heads=2, seed=5):
    cluster = Cluster(head_count=heads, compute_count=1, seed=seed)
    collector = RASCollector(cluster)
    injector = FaultInjector(cluster)
    return cluster, collector, injector


class TestPerNode:
    def test_failure_count_and_downtime(self):
        cluster, ras, injector = make()
        injector.apply(
            FaultSchedule()
            .crash(10, "head0").restart(25, "head0")
            .crash(50, "head0").restart(60, "head0")
        )
        cluster.run(until=100.0)
        assert ras.failure_count("head0") == 2
        assert ras.node_downtime("head0") == pytest.approx(15 + 10)
        assert ras.node_availability("head0") == pytest.approx(0.75)

    def test_mtbf_mttr(self):
        cluster, ras, injector = make()
        injector.apply(
            FaultSchedule()
            .crash(10, "head0").restart(25, "head0")
            .crash(50, "head0").restart(60, "head0")
        )
        cluster.run(until=100.0)
        # Uptime = 100 - 25 down = 75; two failures -> MTBF 37.5.
        assert ras.node_mtbf("head0") == pytest.approx(37.5)
        assert ras.node_mttr("head0") == pytest.approx(12.5)

    def test_unfailed_node_none_metrics(self):
        cluster, ras, _ = make()
        cluster.run(until=10.0)
        assert ras.node_mtbf("head1") is None
        assert ras.node_mttr("head1") is None
        assert ras.node_availability("head1") == 1.0

    def test_open_outage_counted_to_now(self):
        cluster, ras, injector = make()
        injector.apply(FaultSchedule().crash(30, "head0"))
        cluster.run(until=100.0)
        assert ras.node_downtime("head0") == pytest.approx(70.0)
        assert ras.node_downtime("head0", until=20.0) == 0.0  # horizon first
        assert ras.node_mttr("head0") is None  # repair never completed

    def test_only_monitored_roles(self):
        cluster, ras, injector = make()
        injector.apply(FaultSchedule().crash(5, "compute0"))
        cluster.run(until=10.0)
        assert all(e.node != "compute0" for e in ras.events)


class TestFleet:
    def test_all_heads_down_window(self):
        cluster, ras, injector = make()
        injector.apply(
            FaultSchedule()
            .crash(10, "head0")
            .crash(20, "head1")   # both down 20..30
            .restart(30, "head1")
            .restart(40, "head0")
        )
        cluster.run(until=100.0)
        assert ras.all_heads_down_time() == pytest.approx(10.0)

    def test_no_overlap_no_service_outage(self):
        cluster, ras, injector = make()
        injector.apply(
            FaultSchedule()
            .crash(10, "head0").restart(20, "head0")
            .crash(30, "head1").restart(40, "head1")
        )
        cluster.run(until=50.0)
        assert ras.all_heads_down_time() == 0.0

    def test_report_rows(self):
        cluster, ras, injector = make()
        injector.apply(FaultSchedule().crash(10, "head0").restart(20, "head0"))
        cluster.run(until=40.0)
        rows = ras.report()
        assert [r["node"] for r in rows] == ["head0", "head1"]
        head0 = rows[0]
        assert head0["failures"] == 1
        assert head0["downtime_s"] == pytest.approx(10.0)

    def test_matches_exponential_injector_logs(self):
        """Over a long exponential crash/repair schedule (MTTF 50 s, MTTR
        10 s) the collector must agree with the injector's own log."""
        cluster, ras, injector = make(seed=9)
        rng = cluster.kernel.streams.get("failures.head0")
        horizon = 5000.0
        schedule, now = FaultSchedule(), 0.0
        while True:
            crash = now + float(rng.exponential(50.0))
            now = crash + float(rng.exponential(10.0))
            if now >= horizon:
                break
            schedule.crash(crash, "head0").restart(now, "head0")
        injector.apply(schedule)
        cluster.run(until=horizon)
        crashes = [t for t, what in injector.log if what == "crash head0"]
        restarts = [t for t, what in injector.log if what == "restart head0"]
        assert len(crashes) == len(restarts) == ras.failure_count("head0") > 50
        assert ras.node_downtime("head0") == pytest.approx(
            sum(restarts) - sum(crashes), rel=1e-9
        )
