"""Unit tests for the fault-injection subsystem: schedules and the injector."""

import pytest

from repro.cluster.cluster import Cluster
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    drops_token,
    random_schedule,
)
from repro.gcs.messages import TokenMsg
from repro.net.address import Address
from repro.net.frames import AckFrame, DataFrame
from repro.util.errors import ClusterError
from tests.unit.test_cluster import TickerDaemon


@pytest.fixture
def cluster():
    return Cluster(head_count=2, compute_count=2, seed=3)


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ClusterError):
            FaultEvent(1.0, "meteor")

    def test_negative_time_rejected(self):
        with pytest.raises(ClusterError):
            FaultEvent(-1.0, "heal")

    def test_node_required(self):
        with pytest.raises(ClusterError):
            FaultEvent(1.0, "crash")

    def test_pair_required(self):
        with pytest.raises(ClusterError):
            FaultEvent(1.0, "cut", node="a")

    def test_timed_kinds_need_duration(self):
        with pytest.raises(ClusterError):
            FaultEvent(1.0, "loss", value=0.1)
        with pytest.raises(ClusterError):
            FaultEvent(1.0, "freeze", node="a", duration=0.0)

    def test_loss_value_bounded(self):
        with pytest.raises(ClusterError):
            FaultEvent(1.0, "loss", value=1.0, duration=1.0)

    def test_stop_daemon_needs_daemon(self):
        with pytest.raises(ClusterError):
            FaultEvent(1.0, "stop_daemon", node="a")

    def test_end_time(self):
        assert FaultEvent(2.0, "loss", value=0.1, duration=3.0).end_time == 5.0
        assert FaultEvent(2.0, "crash", node="a").end_time == 2.0

    def test_dict_roundtrip(self):
        event = FaultEvent(1.5, "partition", groups=(("a", "b"), ("c",)))
        assert FaultEvent.from_dict(event.to_dict()) == event


class TestFaultSchedule:
    def test_builders_chain_and_sort(self):
        s = (
            FaultSchedule()
            .restart(9.0, "head0")
            .crash(5.0, "head0")
            .loss_burst(1.0, 0.1, 2.0)
        )
        assert [e.kind for e in s.sorted_events()] == ["loss", "crash", "restart"]

    def test_horizon_covers_timed_reverts(self):
        s = FaultSchedule().crash(5.0, "a").loss_burst(4.0, 0.1, 8.0)
        assert s.horizon() == 12.0

    def test_json_roundtrip(self):
        s = (
            FaultSchedule()
            .crash(5.0, "head0")
            .cut(6.0, "head1", "head2")
            .partition(7.0, [["head0"], ["head1", "head2"]])
            .freeze(8.0, "compute0", 1.5)
            .slow_node(9.0, "head1", 0.01, 2.0)
            .token_loss(10.0, 0.5)
            .stop_daemon(11.0, "head0", "joshua")
        )
        restored = FaultSchedule.from_json(s.to_json())
        assert restored.sorted_events() == s.sorted_events()

    def test_describe_mentions_fields(self):
        text = FaultEvent(1.0, "freeze", node="x", duration=2.0).describe()
        assert "freeze" in text and "x" in text


class TestRandomSchedule:
    HEADS = ["head0", "head1", "head2"]
    COMPUTES = ["compute0", "compute1"]

    def test_same_seed_same_schedule(self):
        a = random_schedule(42, heads=self.HEADS, computes=self.COMPUTES)
        b = random_schedule(42, heads=self.HEADS, computes=self.COMPUTES)
        assert a.sorted_events() == b.sorted_events()

    def test_different_seeds_differ(self):
        seeds = [
            tuple(random_schedule(s, heads=self.HEADS).sorted_events())
            for s in range(6)
        ]
        assert len(set(seeds)) > 1

    def test_everything_recovers_within_duration(self):
        for seed in range(10):
            s = random_schedule(
                seed, heads=self.HEADS, computes=self.COMPUTES,
                duration=30.0, intensity=4,
            )
            assert s.horizon() <= 30.0
            crashed = set()
            for e in s.sorted_events():
                if e.kind == "crash":
                    crashed.add(e.node)
                elif e.kind == "restart":
                    crashed.discard(e.node)
            assert not crashed  # every crash is paired with a restart

    def test_at_most_one_head_out_at_a_time(self):
        for seed in range(10):
            s = random_schedule(seed, heads=self.HEADS, duration=30.0, intensity=5)
            out: list[tuple[float, float]] = []
            for e in s.sorted_events():
                if e.kind == "crash":
                    restarts = [
                        r.time for r in s.sorted_events()
                        if r.kind == "restart" and r.node == e.node and r.time > e.time
                    ]
                    out.append((e.time, min(restarts)))
            for i in range(len(out)):
                for j in range(i + 1, len(out)):
                    a, b = out[i], out[j]
                    assert a[1] <= b[0] or b[1] <= a[0]  # intervals disjoint

    def test_token_loss_only_with_token_ordering(self):
        kinds = set()
        for seed in range(20):
            s = random_schedule(seed, heads=self.HEADS, ordering="sequencer")
            kinds |= {e.kind for e in s.sorted_events()}
        assert "token_loss" not in kinds

    def test_intensity_validated(self):
        with pytest.raises(ClusterError):
            random_schedule(0, heads=self.HEADS, intensity=0)


class TestDropsToken:
    def test_matches_token_data_frames(self):
        frame = DataFrame(1, 4, TokenMsg(2, 7))
        assert drops_token(Address("a", 1), Address("b", 1), frame)

    def test_ignores_other_traffic(self):
        a, b = Address("a", 1), Address("b", 1)
        assert not drops_token(a, b, DataFrame(1, 4, "payload"))
        assert not drops_token(a, b, AckFrame(1, 4))
        assert not drops_token(a, b, "raw-string")


class TestFaultInjector:
    def make(self):
        cluster = Cluster(head_count=2, compute_count=1, seed=3)
        return cluster, FaultInjector(cluster)

    def test_crash_and_restart_executed_at_times(self):
        cluster, injector = self.make()
        injector.apply(FaultSchedule().crash(1.0, "head0").restart(2.0, "head0"))
        cluster.run(until=1.5)
        assert not cluster.node("head0").is_up
        cluster.run(until=2.5)
        assert cluster.node("head0").is_up
        assert [a for _t, a in injector.log] == ["crash head0", "restart head0"]

    def test_double_crash_skipped_not_fatal(self):
        cluster, injector = self.make()
        injector.apply(FaultSchedule().crash(1.0, "head0").crash(1.5, "head0"))
        cluster.run(until=2.0)
        assert "skipped" in injector.log[-1][1]

    def test_loss_burst_reverts_to_baseline(self):
        cluster, injector = self.make()
        baseline = cluster.network.lan
        injector.apply(FaultSchedule().loss_burst(1.0, 0.2, 2.0))
        cluster.run(until=1.5)
        assert cluster.network.lan.loss == 0.2
        cluster.run(until=3.5)
        assert cluster.network.lan is baseline

    def test_overlapping_loss_and_jitter_compose(self):
        cluster, injector = self.make()
        injector.apply(
            FaultSchedule().loss_burst(1.0, 0.2, 3.0).jitter_burst(2.0, 0.01, 3.0)
        )
        cluster.run(until=2.5)
        assert cluster.network.lan.loss == 0.2
        assert cluster.network.lan.jitter == 0.01
        cluster.run(until=4.5)  # loss over, jitter still on
        assert cluster.network.lan.loss == 0.0
        assert cluster.network.lan.jitter == 0.01
        cluster.run(until=5.5)
        assert cluster.network.lan is injector._baseline_lan

    def test_freeze_pauses_then_resumes(self):
        cluster, injector = self.make()
        injector.apply(FaultSchedule().freeze(1.0, "compute0", 1.0))
        cluster.run(until=1.5)
        assert "compute0" in cluster.network._paused
        cluster.run(until=2.5)
        assert "compute0" not in cluster.network._paused

    def test_slow_node_episode(self):
        cluster, injector = self.make()
        injector.apply(FaultSchedule().slow_node(1.0, "head1", 0.02, 1.0))
        cluster.run(until=1.5)
        assert cluster.network._slowdown.get("head1", 0.0) == 0.02
        cluster.run(until=2.5)
        assert cluster.network._slowdown.get("head1", 0.0) == 0.0

    def test_token_loss_installs_and_removes_filter(self):
        cluster, injector = self.make()
        injector.apply(FaultSchedule().token_loss(1.0, 1.0))
        cluster.run(until=1.5)
        assert cluster.network._drop_filters
        cluster.run(until=2.5)
        assert not cluster.network._drop_filters

    def test_heal_all_reverts_everything(self):
        cluster, injector = self.make()
        injector.apply(
            FaultSchedule()
            .crash(1.0, "head0")
            .cut(1.0, "head1", "compute0")
            .partition(1.0, [["head1"], ["compute0"]])
            .loss_burst(1.0, 0.3, 50.0)
            .freeze(1.0, "compute0", 50.0)
            .slow_node(1.0, "head1", 0.05, 50.0)
        )
        cluster.run(until=2.0)
        injector.heal_all()
        assert cluster.node("head0").is_up
        assert cluster.network.partitions.reachable("head1", "compute0")
        assert not cluster.network.partitions.cut_links
        assert cluster.network.lan is injector._baseline_lan
        assert "compute0" not in cluster.network._paused
        assert cluster.network._slowdown.get("head1", 0.0) == 0.0


class TestFailureSchedule:
    def test_builder_and_sorting(self):
        s = FaultSchedule().restart(5, "h").crash(1, "h").heal(3)
        assert [e.kind for e in s.sorted_events()] == ["crash", "heal", "restart"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ClusterError):
            FaultEvent(0, "explode")

    def test_negative_time_rejected(self):
        with pytest.raises(ClusterError):
            FaultEvent(-1, "heal")

    def test_schedule_executes(self, cluster):
        injector = FaultInjector(cluster)
        injector.apply(
            FaultSchedule().crash(2.0, "head0").restart(5.0, "head0")
        )
        cluster.run(until=3.0)
        assert not cluster.node("head0").is_up
        cluster.run(until=6.0)
        assert cluster.node("head0").is_up

    def test_partition_events(self, cluster):
        injector = FaultInjector(cluster)
        injector.apply(
            FaultSchedule()
            .partition(1.0, [["head0"], ["head1", "compute0", "compute1"]])
            .heal(2.0)
        )
        cluster.run(until=1.5)
        assert not cluster.network.partitions.reachable("head0", "head1")
        cluster.run(until=2.5)
        assert cluster.network.partitions.reachable("head0", "head1")

    def test_cut_restore_events(self, cluster):
        injector = FaultInjector(cluster)
        injector.apply(FaultSchedule().cut(1.0, "head0", "head1").restore(2.0, "head0", "head1"))
        cluster.run(until=1.5)
        assert not cluster.network.partitions.reachable("head0", "head1")
        cluster.run(until=2.5)
        assert cluster.network.partitions.reachable("head0", "head1")

    def test_stop_daemon_event(self, cluster):
        node = cluster.heads[0]
        d = node.add_daemon("ticker", TickerDaemon)
        injector = FaultInjector(cluster)
        injector.apply(FaultSchedule().stop_daemon(2.5, "head0", "ticker"))
        cluster.run(until=10)
        assert d.ticks == 2
