"""Integration tests: the replicated PVFS metadata server.

Demonstrates the paper's generality claim — the same symmetric
active/active wrapper that replicates PBS replicates the PVFS MDS with no
service-specific replication code: identical replica state, continuous
availability through failures, snapshot-based join.
"""

import pytest

from repro.aa.client import ServiceError
from repro.cluster import Cluster
from repro.pvfs import PVFSClient, build_replicated_mds
from repro.util.errors import NoActiveHeadError


def make_mds(heads=3, seed=13):
    cluster = Cluster(head_count=heads, compute_count=0, login_node=True, seed=seed)
    mds = build_replicated_mds(cluster)
    client = PVFSClient(cluster.network, "login", mds.addresses())
    return cluster, mds, client


def drive(cluster, coroutine):
    process = cluster.kernel.spawn(coroutine)
    return cluster.run(until=process)


def states(mds):
    return {
        head: mds.backend(head).store.snapshot()["inodes"].keys()
        for head in mds.live_heads()
    }


class TestReplication:
    def test_operations_replicated_everywhere(self):
        cluster, mds, client = make_mds()
        drive(cluster, client.mkdir("/data"))
        drive(cluster, client.create("/data/a.dat"))
        cluster.run(until=cluster.kernel.now + 1.0)
        for head in mds.head_names:
            store = mds.backend(head).store
            assert store.readdir("/data") == ["a.dat"]

    def test_replicas_bit_identical(self):
        cluster, mds, client = make_mds()
        def workload():
            yield from client.mkdir("/d")
            for i in range(5):
                yield from client.create(f"/d/f{i}")
            yield from client.unlink("/d/f2")
            yield from client.rename("/d/f0", "/d/renamed")
            yield from client.setattr("/d/renamed", size=99)
        drive(cluster, workload())
        cluster.run(until=cluster.kernel.now + 1.0)
        snapshots = [
            mds.backend(head).store.snapshot() for head in mds.head_names
        ]
        base = snapshots[0]
        for other in snapshots[1:]:
            assert other["inodes"].keys() == base["inodes"].keys()
            assert other["next_handle"] == base["next_handle"]

    def test_deterministic_handles_across_replicas(self):
        cluster, mds, client = make_mds()
        attr = drive(cluster, client.create("/f"))
        cluster.run(until=cluster.kernel.now + 1.0)
        for head in mds.head_names:
            assert mds.backend(head).store.getattr("/f").handle == attr.handle

    def test_application_error_is_deterministic(self):
        cluster, mds, client = make_mds()
        drive(cluster, client.mkdir("/d"))
        with pytest.raises(ServiceError, match="AlreadyExists"):
            drive(cluster, client.mkdir("/d"))
        # The failed operation mutated nothing anywhere.
        cluster.run(until=cluster.kernel.now + 1.0)
        for head in mds.head_names:
            assert mds.backend(head).store.statfs()["directories"] == 2

    def test_exactly_once_under_retry(self):
        """The uuid dedup: retrying a create to a second replica must not
        allocate twice."""
        from repro.aa.replicated import ReplRequest
        from repro.pvfs.wire import Create
        from repro.rpc import call as rpc_call
        cluster, mds, client = make_mds()
        request = ReplRequest("fixed-1", Create("/once.dat"))

        def twice():
            first = yield from rpc_call(
                cluster.network, "login", mds.addresses()[0], request)
            second = yield from rpc_call(
                cluster.network, "login", mds.addresses()[1], request)
            return first, second

        first, second = drive(cluster, twice())
        assert first.value.handle == second.value.handle
        cluster.run(until=cluster.kernel.now + 1.0)
        assert mds.backend("head0").store.statfs()["files"] == 1


class TestFailures:
    def test_service_continues_after_replica_crash(self):
        cluster, mds, client = make_mds()
        drive(cluster, client.mkdir("/survive"))
        cluster.node("head0").crash()
        cluster.run(until=cluster.kernel.now + 2.0)
        attr = drive(cluster, client.create("/survive/after.dat"))
        assert attr.kind == "file"
        for head in ("head1", "head2"):
            assert mds.backend(head).store.readdir("/survive") == ["after.dat"]

    def test_two_failures_one_survivor(self):
        cluster, mds, client = make_mds()
        drive(cluster, client.mkdir("/deep"))
        cluster.node("head0").crash()
        cluster.node("head1").crash()
        cluster.run(until=cluster.kernel.now + 3.0)
        drive(cluster, client.create("/deep/last.dat"))
        assert mds.backend("head2").store.readdir("/deep") == ["last.dat"]

    def test_client_fails_over(self):
        cluster, mds, client = make_mds()
        cluster.node("head0").crash()
        drive(cluster, client.mkdir("/fo"))
        assert client.stats["failovers"] >= 1

    def test_all_replicas_down(self):
        cluster, mds, client = make_mds(heads=2)
        cluster.node("head0").crash()
        cluster.node("head1").crash()
        with pytest.raises(NoActiveHeadError):
            drive(cluster, client.mkdir("/nope"))


class TestRestart:
    def test_restarted_replica_joins_and_never_forms_a_group(self):
        """A crashed-and-restarted replica returns to the running group; it
        must not re-run ``boot()`` on its founding list. It used to: the
        "only the first incarnation boots" rule lived in JOSHUA's deployment
        code, so a restarted MDS replica sat ``active`` in a singleton view
        over an empty store, acknowledged writes there (SAFE delivery is
        immediate in a view of one), and the resync that rescued it threw
        them away."""
        cluster, mds, _client = make_mds()
        client = PVFSClient(cluster.network, "login", mds.addresses())  # head0 first
        drive(cluster, client.mkdir("/r"))
        cluster.node("head0").crash()
        cluster.run(until=cluster.kernel.now + 2.0)
        drive(cluster, client.create("/r/while-down"))
        acknowledged = ["while-down"]
        writing = {"on": True}

        def writer():
            index = 0
            while writing["on"]:
                yield from client.create(f"/r/f{index}")
                acknowledged.append(f"f{index}")
                index += 1

        cluster.node("head0").restart()
        process = cluster.kernel.spawn(writer())
        for _ in range(60):
            cluster.run(until=cluster.kernel.now + 0.05)
            engine = mds.replica("head0").shards[0]
            if engine.active:
                members = {member.node for member in engine.group.view.members}
                assert {"head1", "head2"} <= members
        writing["on"] = False
        cluster.run(until=process)
        cluster.run(until=cluster.kernel.now + 1.0)
        assert mds.replica("head0").active
        assert len(acknowledged) > 5
        backends = [mds.backend(head) for head in mds.head_names]
        for backend in backends:
            assert sorted(backend.store.readdir("/r")) == sorted(acknowledged)
            assert backend.store.snapshot() == backends[0].store.snapshot()
            assert backend._logical_time == backends[0]._logical_time

    def test_a_whole_group_reboot_is_not_recovered_from_memory(self):
        """The MDS keeps its store in memory (``ReplicatedService.durable``
        is False): after every replica reboots, each holds an empty store
        although the group had applied commands, and its disk holds a view
        past the founding one, so it does not boot afresh either. None may
        come back into service on that; they wait for a running group that
        never comes. A host that is not durable writes no position."""
        cluster, mds, client = make_mds()
        drive(cluster, client.mkdir("/r"))
        drive(cluster, client.create("/r/acknowledged"))
        cluster.run(until=cluster.kernel.now + 1.0)
        for head in mds.head_names:
            cluster.node(head).crash()
        cluster.run(until=cluster.kernel.now + 2.0)
        for head in mds.head_names:
            cluster.node(head).restart()
        for _ in range(100):
            cluster.run(until=cluster.kernel.now + 0.1)
            for head in mds.head_names:
                engine = mds.replica(head).shards[0]
                disk = cluster.node(head).disk
                assert disk.read(engine._view_key)[0] > 0
                assert engine._applied_key not in disk
                assert not engine.active
        with pytest.raises(NoActiveHeadError):
            drive(cluster, PVFSClient(cluster.network, "login", mds.addresses())
                  .create("/r/after"))


class TestJoin:
    def test_new_replica_receives_snapshot(self):
        cluster, mds, client = make_mds(heads=2)
        drive(cluster, client.mkdir("/base"))
        drive(cluster, client.create("/base/seed.dat"))
        mds.add_replica()
        cluster.run(until=cluster.kernel.now + 5.0)
        replica = mds.replica("head2")
        assert replica.active
        assert mds.backend("head2").store.readdir("/base") == ["seed.dat"]

    def test_joined_replica_stays_consistent(self):
        cluster, mds, client = make_mds(heads=2)
        drive(cluster, client.mkdir("/base"))
        mds.add_replica()
        cluster.run(until=cluster.kernel.now + 5.0)
        drive(cluster, client.create("/base/post-join.dat"))
        cluster.run(until=cluster.kernel.now + 1.0)
        for head in mds.head_names:
            assert mds.backend(head).store.readdir("/base") == ["post-join.dat"]

    def test_retry_after_join_answered_from_transferred_cache(self):
        """A client retry of an already-answered create that lands on a
        freshly joined replica is answered from the reply cache the join
        transferred — re-executing it there would fail ("exists") and
        advance only the joiner's logical clock."""
        from repro.aa.replicated import ReplRequest
        from repro.pvfs.wire import Create
        from repro.rpc import call as rpc_call
        cluster, mds, client = make_mds(heads=2)
        request = ReplRequest("fixed-join", Create("/once.dat"))
        first = drive(cluster, rpc_call(
            cluster.network, "login", mds.addresses()[0], request))
        mds.add_replica()
        cluster.run(until=cluster.kernel.now + 5.0)
        assert mds.replica("head2").active
        retry = drive(cluster, rpc_call(
            cluster.network, "login", mds.addresses()[2], request))
        assert retry == first and retry.error is None
        # Logical time and the handle allocator stayed in step everywhere.
        created = drive(cluster, client.create("/next.dat"))
        cluster.run(until=cluster.kernel.now + 1.0)
        backends = [mds.backend(head) for head in mds.head_names]
        assert len({b._logical_time for b in backends}) == 1
        for backend in backends:
            assert backend.store.getattr("/next.dat") == created
            assert backend.store.snapshot() == backends[0].store.snapshot()

    def test_ops_racing_the_join_not_lost(self):
        cluster, mds, client = make_mds(heads=2)
        drive(cluster, client.mkdir("/race"))
        mds.add_replica()
        racing = [
            cluster.kernel.spawn(client.create(f"/race/f{i}"))
            for i in range(3)
        ]
        cluster.run(until=cluster.kernel.all_of(racing))
        cluster.run(until=cluster.kernel.now + 5.0)
        listings = {
            head: tuple(mds.backend(head).store.readdir("/race"))
            for head in mds.head_names
        }
        assert len(set(listings.values())) == 1
        assert listings["head2"] == ("f0", "f1", "f2")
