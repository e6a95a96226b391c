"""Unit tests for nodes, daemons and storage."""

import pytest

from repro.cluster import Cluster, Daemon, Disk, SharedStorage
from repro.util.errors import ClusterError, NodeDown


@pytest.fixture
def cluster():
    return Cluster(head_count=2, compute_count=2, seed=3)


class TickerDaemon(Daemon):
    """Test daemon: counts ticks; remembers lifecycle calls."""

    def __init__(self, node, port=100):
        super().__init__(node, "ticker", port)
        self.ticks = 0
        self.started = False
        self.stopped_crashed = None

    def on_start(self):
        self.started = True

    def run(self):
        while True:
            yield self.kernel.timeout(1.0)
            self.ticks += 1

    def on_stop(self, *, crashed):
        self.stopped_crashed = crashed


class TestClusterBuilder:
    def test_topology(self, cluster):
        assert [n.name for n in cluster.heads] == ["head0", "head1"]
        assert [n.name for n in cluster.computes] == ["compute0", "compute1"]
        assert cluster.login is None

    def test_login_node(self):
        c = Cluster(head_count=1, login_node=True)
        assert c.login is not None
        assert c.node("login").role == "login"

    def test_node_lookup(self, cluster):
        assert cluster.node("head1").name == "head1"
        with pytest.raises(ClusterError):
            cluster.node("nope")

    def test_validation(self):
        with pytest.raises(ClusterError):
            Cluster(head_count=0)
        with pytest.raises(ClusterError):
            Cluster(head_count=1, compute_count=-1)

    def test_shared_storage_exists(self, cluster):
        assert isinstance(cluster.shared_storage, SharedStorage)


class TestDaemonLifecycle:
    def test_daemon_runs(self, cluster):
        d = cluster.heads[0].add_daemon("ticker", TickerDaemon)
        cluster.run(until=5.5)
        assert d.ticks == 5
        assert d.started

    def test_stop_halts_loop(self, cluster):
        d = cluster.heads[0].add_daemon("ticker", TickerDaemon)
        cluster.run(until=2.5)
        d.stop()
        cluster.run(until=10)
        assert d.ticks == 2
        assert d.stopped_crashed is False
        assert not d.running

    def test_crash_tears_down_daemon(self, cluster):
        node = cluster.heads[0]
        d = node.add_daemon("ticker", TickerDaemon)
        cluster.run(until=2.5)
        node.crash()
        cluster.run(until=10)
        assert d.ticks == 2
        assert d.stopped_crashed is True
        assert d.endpoint.closed

    def test_restart_builds_fresh_daemon(self, cluster):
        node = cluster.heads[0]
        d1 = node.add_daemon("ticker", TickerDaemon)
        cluster.run(until=3.5)
        node.crash()
        node.restart()
        d2 = node.daemon("ticker")
        assert d2 is not d1
        assert d2.ticks == 0  # volatile state gone
        cluster.run(until=5.5)
        assert d2.ticks == 2

    def test_restart_without_daemons(self, cluster):
        node = cluster.heads[0]
        node.add_daemon("ticker", TickerDaemon)
        node.crash()
        node.restart(daemons=False)
        assert node.daemons == {}

    def test_double_crash_rejected(self, cluster):
        node = cluster.heads[0]
        node.crash()
        with pytest.raises(ClusterError):
            node.crash()

    def test_double_restart_rejected(self, cluster):
        with pytest.raises(ClusterError):
            cluster.heads[0].restart()

    def test_start_daemon_on_down_node_rejected(self, cluster):
        node = cluster.heads[0]
        node.add_daemon("ticker", TickerDaemon, start=False)
        node.crash()
        with pytest.raises(NodeDown):
            node.start_daemon("ticker")

    def test_duplicate_daemon_name_rejected(self, cluster):
        node = cluster.heads[0]
        node.add_daemon("ticker", TickerDaemon)
        with pytest.raises(ClusterError):
            node.add_daemon("ticker", TickerDaemon)

    def test_observers_notified(self, cluster):
        node = cluster.heads[0]
        events = []
        node.observe(lambda n, kind: events.append((n.name, kind)))
        node.crash()
        node.restart()
        assert events == [("head0", "crash"), ("head0", "restart")]

    def test_helper_processes_die_with_daemon(self, cluster):
        log = []

        class HelperDaemon(Daemon):
            def __init__(self, node):
                super().__init__(node, "helper", 101)

            def on_start(self):
                def side():
                    while True:
                        yield self.kernel.timeout(1.0)
                        log.append(self.kernel.now)
                self.spawn(side())

        node = cluster.heads[0]
        node.add_daemon("helper", HelperDaemon)
        cluster.run(until=2.5)
        node.crash()
        cluster.run(until=10)
        assert log == [1.0, 2.0]

    def test_finished_helpers_are_forgotten_without_a_later_spawn(self, cluster):
        daemon = cluster.heads[0].add_daemon("ticker", TickerDaemon)
        kernel = cluster.kernel

        def short():
            yield kernel.timeout(1.0)

        def forever():
            yield kernel.timeout(1e9)

        done = [daemon.spawn(short(), name=f"short{i}") for i in range(3)]
        survivor = daemon.spawn(forever(), name="forever")
        assert list(daemon._helpers) == done + [survivor]
        cluster.run(until=2.0)
        # Each finished helper dropped itself; nothing scanned the rest.
        assert list(daemon._helpers) == [survivor]
        daemon.stop()
        cluster.run(until=3.0)
        assert not daemon._helpers and not survivor.is_alive

    def test_surviving_helpers_are_interrupted_in_spawn_order(self, cluster):
        """Teardown's interrupts are events: their order is on the schedule
        and must be the spawn order, not a hash order."""
        from repro.util.errors import Interrupt

        daemon = cluster.heads[0].add_daemon("ticker", TickerDaemon)
        kernel = cluster.kernel
        interrupted = []

        def helper(index):
            try:
                yield kernel.timeout(0.5 if index % 3 == 0 else 1e9)
            except Interrupt:
                interrupted.append(index)

        for index in range(64):
            daemon.spawn(helper(index), name=f"h{index}")
        cluster.run(until=1.0)  # every third helper finishes on its own
        cluster.heads[0].crash()
        cluster.run(until=2.0)
        assert interrupted == [i for i in range(64) if i % 3]

    def test_crashed_helper_is_still_reported(self, cluster):
        from repro.util.errors import SimulationError

        daemon = cluster.heads[0].add_daemon("ticker", TickerDaemon)

        def broken():
            yield cluster.kernel.timeout(0.5)
            raise RuntimeError("protocol bug")

        daemon.spawn(broken(), name="broken-helper")
        with pytest.raises(SimulationError, match="broken-helper"):
            cluster.run(until=1.0)
        assert not daemon._helpers


class TestStorage:
    def test_disk_survives_crash(self, cluster):
        node = cluster.heads[0]
        node.disk.write("queue", [1, 2, 3])
        node.crash()
        node.restart()
        assert node.disk.read("queue") == [1, 2, 3]

    def test_deep_copy_on_write_and_read(self):
        disk = Disk("n")
        data = {"jobs": [1]}
        disk.write("k", data)
        data["jobs"].append(2)
        assert disk.read("k") == {"jobs": [1]}
        first = disk.read("k")
        first["jobs"].append(99)
        assert disk.read("k") == {"jobs": [1]}

    @pytest.mark.parametrize("store", [Disk, SharedStorage])
    def test_snapshot_isolates_like_a_deep_copy(self, store):
        """A stored value is a snapshot: mutating the written object does
        not reach it, and each read is a fresh object graph equal to what
        a deep copy of the value at write time would have been."""
        import copy

        from repro.pbs.job import Job, JobSpec

        disk = Disk("n") if store is Disk else store()
        shared = ["x"]
        value = {"jobs": [Job("1.t", JobSpec(name="a"))], "a": shared, "b": shared,
                 "next": 3}
        expected = copy.deepcopy(value)
        disk.write("k", value)
        value["jobs"].append(Job("2.t", JobSpec()))
        value["next"] = 4
        shared.append("y")
        first, second = disk.read("k"), disk.read("k")
        assert first == second == expected
        assert first is not second and first["jobs"] is not second["jobs"]
        assert first["jobs"][0] is not second["jobs"][0]
        # Aliasing inside one value survives, as deepcopy keeps it.
        assert first["a"] is first["b"] and first["a"] is not second["a"]
        first["a"].append("z")
        assert disk.read("k") == expected

    def test_read_default_and_delete(self):
        disk = Disk("n")
        assert disk.read("missing", 42) == 42
        disk.write("k", 1)
        disk.delete("k")
        assert "k" not in disk

    def test_keys_and_wipe(self):
        disk = Disk("n")
        disk.write("b", 1)
        disk.write("a", 2)
        assert disk.keys() == ["a", "b"]
        disk.delete_prefix("")
        assert disk.keys() == []

    def test_prefix_enumeration_is_sorted_not_write_order(self):
        disk = Disk("n")
        for key in ["pbs.t.job.2.t", "pbs.t", "other", "pbs.t.job.10.t", "pbs.t2"]:
            disk.write(key, key.upper())
        assert disk.keys("pbs.t.job.") == ["pbs.t.job.10.t", "pbs.t.job.2.t"]
        assert disk.keys("pbs.t") == [
            "pbs.t", "pbs.t.job.10.t", "pbs.t.job.2.t", "pbs.t2"]
        assert disk.keys("nothing") == []
        # Rewriting a record does not move it.
        disk.write("pbs.t.job.10.t", "again")
        assert disk.keys("pbs.t.job.") == ["pbs.t.job.10.t", "pbs.t.job.2.t"]

    def test_delete_prefix_removes_exactly_the_family(self):
        disk = Disk("n")
        for key in ["pbs.t", "pbs.t.job.1.t", "pbs.t.job.2.t", "other"]:
            disk.write(key, 1)
        disk.delete_prefix("pbs.t.job.")
        assert disk.keys() == ["other", "pbs.t"]
        disk.delete_prefix("absent")  # nothing to do is not an error
        assert disk.keys() == ["other", "pbs.t"]

    def test_record_of_frozen_values_is_isolated_both_ways(self):
        """The PBS server's job record is ``(rank, Job)``: frozen, but the
        disk still hands out copies, never the stored object."""
        from repro.pbs.job import Job, JobSpec

        disk = Disk("n")
        job = Job("1.t", JobSpec(name="a"), exec_nodes=("compute0",))
        disk.write("k", (0, job))
        first, second = disk.read("k"), disk.read("k")
        assert first == second == (0, job)
        assert first[1] is not job and first[1] is not second[1]
        assert first[1].spec is not job.spec
        # Bypassing the freeze on a copy must not reach the disk.
        object.__setattr__(first[1], "comment", "tampered")
        object.__setattr__(job, "comment", "tampered")
        assert disk.read("k")[1].comment == ""

