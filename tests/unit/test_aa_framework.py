"""Unit tests for the generic active/active framework and diurnal workload."""

import pytest

from repro.aa.client import ReplicatedClient, ServiceError
from repro.aa.engine import record_founding_view
from repro.aa.replicated import ReplicatedService, ReplRequest, ReplResult
from repro.bench.workloads import DiurnalWorkload
from repro.cluster import Cluster
from repro.cluster.node import Node
from repro.gcs.config import GroupConfig
from repro.net.address import Address
from repro.util.errors import NoActiveHeadError, ReproError

from tests.integration.conftest import drop_first_cut_pushes

FAST = GroupConfig(
    heartbeat_interval=0.1, suspect_timeout=0.35,
    flush_timeout=0.8, retransmit_interval=0.05,
)


class CounterDriver:
    """Minimal deterministic backend: an integer register."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.value = 0

    def execute(self, payload):
        yield self.kernel.timeout(0.001)
        kind, amount = payload
        if kind == "add":
            self.value += amount
            return self.value
        if kind == "get":
            return self.value
        raise ValueError(f"bad op {kind}")

    def snapshot(self):
        yield self.kernel.timeout(0.001)
        return self.value

    def restore(self, state):
        yield self.kernel.timeout(0.001)
        self.value = state


def deploy(n=2, seed=19):
    cluster = Cluster(head_count=n, compute_count=0, login_node=True, seed=seed)
    names = [h.name for h in cluster.heads]
    services = {}
    for head in cluster.heads:
        record_founding_view(head.disk, names, 7001)

        def factory(node):
            return ReplicatedService(
                node, "counter", CounterDriver(node.kernel),
                port=7000, gcs_port=7001, heads=names, group_config=FAST,
            )
        services[head.name] = head.add_daemon("counter", factory)
    client = ReplicatedClient(
        cluster.network, "login", [Address(nm, 7000) for nm in names]
    )
    return cluster, services, client


def drive(cluster, coroutine):
    process = cluster.kernel.spawn(coroutine)
    return cluster.run(until=process)


def join(cluster, services, name, contacts):
    """Bring a brand-new replica *name* into the running group."""
    node = Node(cluster.network, name, role="head")
    cluster.heads.append(node)

    def factory(n):
        return ReplicatedService(
            n, "counter", CounterDriver(n.kernel),
            port=7000, gcs_port=7001, heads=contacts, group_config=FAST,
        )

    services[name] = node.add_daemon("counter", factory)
    return services[name]


def ask(cluster, head, request):
    from repro.rpc import call as rpc_call
    return drive(cluster, rpc_call(
        cluster.network, "login", Address(head, 7000), request, timeout=3.0,
    ))


class TestReplicatedService:
    def test_replicated_execution(self):
        cluster, services, client = deploy()
        assert drive(cluster, client.call(("add", 5))) == 5
        assert drive(cluster, client.call(("add", 3))) == 8
        cluster.run(until=cluster.kernel.now + 0.5)
        assert services["head0"].driver.value == 8
        assert services["head1"].driver.value == 8

    def test_backend_error_propagates_as_service_error(self):
        cluster, _services, client = deploy()
        with pytest.raises(ServiceError, match="ValueError"):
            drive(cluster, client.call(("explode", 0)))

    def test_survives_replica_failure(self):
        cluster, services, client = deploy(n=3)
        drive(cluster, client.call(("add", 1)))
        cluster.node("head0").crash()
        cluster.run(until=cluster.kernel.now + 2.0)
        assert drive(cluster, client.call(("add", 1))) == 2
        assert services["head1"].driver.value == 2

    def test_retry_same_uuid_cached(self):
        from repro.rpc import call as rpc_call
        cluster, services, client = deploy()
        request = ReplRequest("fixed", ("add", 10))

        def twice():
            a = yield from rpc_call(cluster.network, "login", Address("head0", 7000), request)
            b = yield from rpc_call(cluster.network, "login", Address("head1", 7000), request)
            return a, b

        a, b = drive(cluster, twice())
        assert a.value == b.value == 10
        cluster.run(until=cluster.kernel.now + 0.5)
        assert services["head0"].driver.value == 10  # applied once

    def test_requires_membership_choice(self):
        # One head list, and no default: a start decides boot, join or
        # recover from the node's disk, never from how it was built.
        cluster = Cluster(head_count=1, compute_count=0, seed=1)
        with pytest.raises(TypeError, match="heads"):
            ReplicatedService(
                cluster.heads[0], "x", CounterDriver(cluster.kernel),
                port=7000, gcs_port=7001,
            )

    def test_all_replicas_down(self):
        cluster, _services, client = deploy()
        cluster.node("head0").crash()
        cluster.node("head1").crash()
        with pytest.raises(NoActiveHeadError):
            drive(cluster, client.call(("get", 0)))

    def test_client_requires_replicas(self):
        cluster = Cluster(head_count=1, compute_count=0, seed=1)
        with pytest.raises(NoActiveHeadError):
            ReplicatedClient(cluster.network, "head0", [])


class TestEngineJoin:
    """The join paths the generic service inherits from the shared engine
    (each failed on the private copy ``aa/replicated.py`` used to carry)."""

    def test_retry_after_join_answered_from_transferred_cache(self):
        cluster, services, _client = deploy()
        request = ReplRequest("fixed", ("add", 10))
        assert ask(cluster, "head0", request).value == 10
        joiner = join(cluster, services, "head2", ["head0", "head1"])
        cluster.run(until=cluster.kernel.now + 5.0)
        assert joiner.active
        # The reply cache travelled with the state: the retry is answered,
        # not re-executed (which would answer 20 and fork the joiner).
        assert ask(cluster, "head2", request).value == 10
        cluster.run(until=cluster.kernel.now + 0.5)
        assert [s.driver.value for s in services.values()] == [10, 10, 10]
        assert joiner.stats["executed"] == 0

    def test_losing_partition_side_demotes_and_resyncs(self):
        cluster, services, client = deploy(n=3)
        assert drive(cluster, client.call(("add", 1))) == 1
        net = cluster.network
        net.partitions.set_partitions([["head0", "head1", "login"], ["head2"]])
        cluster.run(until=cluster.kernel.now + 3.0)
        drive(cluster, client.call(("add", 10)))
        assert drive(cluster, client.call(("add", 10))) == 21
        assert services["head2"].driver.value == 1  # missed both
        net.partitions.heal_partitions()
        cluster.run(until=cluster.kernel.now + 12.0)
        loser = services["head2"]
        # Re-merged, demoted, resynced through a fresh marker: converged.
        assert loser.active
        assert [s.driver.value for s in services.values()] == [21, 21, 21]
        assert loser.shards[0].group.stats["rejoins"] == 1
        assert loser.shards[0].group.view.size == 3
        assert drive(cluster, client.call(("add", 1))) == 22
        cluster.run(until=cluster.kernel.now + 0.5)
        assert loser.driver.value == 22

    def test_lost_push_frame_recovered_by_fresh_cut(self):
        cluster, services, client = deploy()
        drive(cluster, client.call(("add", 7)))
        drop_first_cut_pushes(cluster.network)
        joiner = join(cluster, services, "head2", ["head0", "head1"])
        cluster.run(until=cluster.kernel.now + 10.0)
        assert joiner.active
        assert joiner.driver.value == 7
        # Every push of the first cut was lost: each sponsor captured a
        # second one, at the fresh cut the joiner pinned.
        for sponsor in ("head0", "head1"):
            assert services[sponsor].stats["state_transfers_served"] == 2
        engine = joiner.shards[0]
        assert engine._response is None and engine._push_waiter is None


class TestDiurnalWorkload:
    def test_deterministic(self):
        a = [(d, s.name) for d, s in DiurnalWorkload(30, base_rate=0.1, seed=4)]
        b = [(d, s.name) for d, s in DiurnalWorkload(30, base_rate=0.1, seed=4)]
        assert a == b

    def test_count_and_len(self):
        wl = DiurnalWorkload(25, base_rate=0.1)
        assert len(wl) == 25
        assert len(list(wl)) == 25

    def test_daytime_denser_than_night(self):
        """With strong amplitude, more arrivals land in the middle half of
        the day than in the outer half."""
        wl = DiurnalWorkload(400, base_rate=400 / 86400.0, amplitude=0.9, seed=7)
        times, acc = [], 0.0
        for delay, _spec in wl:
            acc += delay
            times.append(acc % 86400.0)
        mid = sum(1 for t in times if 86400 * 0.25 <= t < 86400 * 0.75)
        assert mid > len(times) * 0.6

    def test_walltime_range(self):
        for _d, spec in DiurnalWorkload(50, base_rate=0.1, walltime_range=(3, 4), seed=1):
            assert 3 <= spec.walltime <= 4

    def test_validation(self):
        with pytest.raises(ReproError):
            DiurnalWorkload(0, base_rate=1)
        with pytest.raises(ReproError):
            DiurnalWorkload(1, base_rate=0)
        with pytest.raises(ReproError):
            DiurnalWorkload(1, base_rate=1, amplitude=1.0)
        with pytest.raises(ReproError):
            DiurnalWorkload(1, base_rate=1, walltime_range=(0, 1))
