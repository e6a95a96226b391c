"""Focused unit tests for JoshuaServer internals and configuration."""

import pytest

from repro.cluster import Cluster
from repro.joshua import JoshuaServer, JoshuaClient
from repro.joshua.config import ERA_2006_JOSHUA, JOSHUA_GROUP_CONFIG, JoshuaTimes
from repro.joshua.mutex import _MutexEntry
from repro.pbs.job import JobSpec
from repro.util.errors import NoActiveHeadError

from tests.integration.conftest import drive, make_stack, settle


class TestConstruction:
    def make_node(self):
        cluster = Cluster(head_count=1, compute_count=0, seed=1)
        return cluster.heads[0]

    def test_requires_membership_choice(self):
        # One head list, and no default: a start decides boot, join or
        # recover from the node's disk, never from how it was built.
        node = self.make_node()
        with pytest.raises(TypeError, match="heads"):
            JoshuaServer(node)

    def test_calibration_constants(self):
        assert JOSHUA_GROUP_CONFIG.processing_delay > 0
        assert JOSHUA_GROUP_CONFIG.stable_ack_base > 0
        assert isinstance(ERA_2006_JOSHUA, JoshuaTimes)

    def test_jmutex_port_constant_in_sync(self):
        # One object, not equal copies: the client, the mom hook and the
        # daemon all import the port from the wire module.
        from repro.joshua import JOSHUA_PORT, commands, jmutex, server, wire
        for module in (commands, jmutex, server):
            assert module.JOSHUA_PORT is wire.JOSHUA_PORT
        assert JOSHUA_PORT is wire.JOSHUA_PORT


class TestMutexBookkeeping:
    def test_waiters_flushed_on_claim(self, stack=None):
        stack = make_stack()
        settle(stack, 0.5)
        joshua = stack.joshua("head0")
        replies = []
        joshua._reply = lambda dst, rid, resp: replies.append((rid, resp))
        from repro.joshua.wire import JMutexReq
        from repro.net.address import Address
        src = Address("compute0", 1)
        joshua._handle_jmutex(src, 1, JMutexReq("9.joshua", "head0"))
        joshua._handle_jmutex(src, 2, JMutexReq("9.joshua", "head0"))
        assert replies == []  # both wait for the SAFE claim
        settle(stack, 1.0)  # claim delivered group-wide
        assert {rid for rid, _ in replies} == {1, 2}
        assert all(resp.decision == "run" for _rid, resp in replies)

    def test_second_head_claim_loses(self):
        stack = make_stack()
        settle(stack, 0.5)
        j0, j1 = stack.joshua("head0"), stack.joshua("head1")
        replies0, replies1 = [], []
        j0._reply = lambda d, r, resp: replies0.append(resp)
        j1._reply = lambda d, r, resp: replies1.append(resp)
        from repro.joshua.wire import JMutexReq
        from repro.net.address import Address
        src = Address("compute0", 1)
        j0._handle_jmutex(src, 1, JMutexReq("9.joshua", "head0"))
        settle(stack, 1.0)  # head0's claim wins group-wide
        j1._handle_jmutex(src, 2, JMutexReq("9.joshua", "head1"))
        settle(stack, 0.1)
        assert replies0[-1].decision == "run"
        assert replies1[-1].decision == "emulate"
        assert replies1[-1].winner == "head0"

    def test_done_clears_entry(self):
        stack = make_stack()
        settle(stack, 0.5)
        joshua = stack.joshua("head0")
        joshua.shard_for_job("9.joshua").arbiter.entries["9.joshua"] = \
            _MutexEntry("head0", started=True)
        from repro.joshua.wire import Done
        joshua.group.multicast(Done("9.joshua"))
        settle(stack, 1.0)
        for head in ("head0", "head1"):
            entries = stack.joshua(head).shard_for_job("9.joshua").arbiter.entries
            assert "9.joshua" not in entries

    def test_attempt_after_done_emulates_and_multicasts_nothing(self):
        """A lagging head's scheduler may dispatch a job after its Done was
        ordered, maybe to another compute node: that attempt must emulate,
        not win a fresh claim and launch the job again."""
        from repro.joshua.wire import Claim, Done, JMutexReq, Started
        from repro.net.address import Address
        stack = make_stack()
        settle(stack, 0.5)
        j0, j1 = stack.joshua("head0"), stack.joshua("head1")
        for record in (Claim("9.joshua", "head0"), Started("9.joshua"), Done("9.joshua")):
            j0.group.multicast(record)
            settle(stack, 0.5)
        replies = []
        j1._reply = lambda d, r, resp: replies.append(resp)
        multicasts = j1.group.stats["multicasts"]
        j1._handle_jmutex(Address("compute1", 1), 1, JMutexReq("9.joshua", "head1"))
        settle(stack, 1.0)
        assert [r.decision for r in replies] == ["emulate"]
        assert j1.group.stats["multicasts"] == multicasts
        for joshua in (j0, j1):
            assert "9.joshua" not in joshua.shard_for_job("9.joshua").arbiter.entries


class TestClientBehaviour:
    def test_prefer_orders_heads(self):
        stack = make_stack()
        client = JoshuaClient(
            stack.cluster.network, "login", ["head0", "head1"], prefer="head1"
        )
        assert [r.node for r in client._targets()] == ["head1", "head0"]

    def test_unknown_prefer_ignored(self):
        stack = make_stack()
        client = JoshuaClient(
            stack.cluster.network, "login", ["head0", "head1"], prefer="head9"
        )
        assert [r.node for r in client._targets()] == ["head0", "head1"]

    def test_uuid_uniqueness(self):
        stack = make_stack()
        client = stack.client(node="login")
        uuids = {client._uuid("jsub") for _ in range(100)}
        assert len(uuids) == 100

    def test_results_cache_answers_second_client(self):
        """A different client node retrying an identical uuid gets the
        cached result (covers failover from a vanished client host)."""
        stack = make_stack()
        settle(stack, 0.5)
        from repro.joshua.wire import JSubReq
        from repro.net.address import Address
        from repro.rpc import call as rpc_call
        request = JSubReq("shared-uuid", JobSpec(name="c", walltime=600))

        def seq():
            first = yield from rpc_call(
                stack.cluster.network, "compute0", Address("head0", 4412), request)
            second = yield from rpc_call(
                stack.cluster.network, "compute1", Address("head0", 4412), request)
            return first, second

        first, second = drive(stack, seq())
        assert first.job_id == second.job_id
