"""End-to-end tests of the group member: total order, SAFE, membership."""

import pytest

from repro.gcs import GroupConfig, GroupMember, boot_static_group, recovery
from repro.gcs.lifecycle import JOINING
from repro.gcs.contract import GroupContract
from repro.gcs.messages import AGREED, SAFE, JoinReq
from repro.net import Address, Network
from repro.net.codec import WIRE
from repro.sim import Kernel
from repro.util.errors import GroupCommError, NotInView

GCS_PORT = 9

FAST = GroupConfig(
    heartbeat_interval=0.05,
    suspect_timeout=0.16,
    flush_timeout=0.3,
    retransmit_interval=0.02,
)


class Harness:
    """N group members on one simulated LAN, with delivery/view recording."""

    def __init__(self, n, config=FAST, seed=1, loss=0.0, sanitize=False):
        from repro.net.link import FAST_ETHERNET
        self.kernel = Kernel(seed=seed, sanitize=sanitize)
        lan = FAST_ETHERNET.with_loss(loss) if loss else FAST_ETHERNET
        self.net = Network(self.kernel, shared_medium=False)
        self.net.lan = lan
        self.members: dict[str, GroupMember] = {}
        #: The group's contract over every member ever attached.
        self.contract = GroupContract()
        self.delivered: dict[str, list] = {}
        self.views: dict[str, list] = {}
        #: Members ever attached per name — the boot counter a real
        #: deployment keeps on the node's disk (see ReplicationEngine).
        self.boots: dict[str, int] = {}
        self.config = config
        for i in range(n):
            self.add_node(f"n{i}")

    def add_node(self, name):
        self.net.register_node(name)
        return self.attach(name)

    def attach(self, name):
        endpoint = self.net.bind(name, GCS_PORT)
        self.delivered.setdefault(name, [])
        self.views.setdefault(name, [])
        member = GroupMember(
            endpoint,
            self.config,
            on_deliver=lambda m, nm=name: self.delivered[nm].append(m),
            on_view=lambda v, nm=name: self.views[nm].append(v),
            incarnation=self.boots.get(name, 0),
        )
        self.boots[name] = self.boots.get(name, 0) + 1
        self.contract.attach(member)
        self.members[name] = member
        return member

    def boot(self):
        boot_static_group(list(self.members.values()))

    def crash(self, name):
        self.members[name].stop()
        self.net.set_node_up(name, False)

    def addr(self, name):
        return Address(name, GCS_PORT)

    def run(self, until):
        self.kernel.run(until=until)

    def delivered_ids(self, name):
        return [m.msg_id for m in self.delivered[name]]

    def live_names(self):
        return [n for n, m in self.members.items() if m.state != "stopped"]


class TestNormalOperation:
    def test_single_multicast_delivered_everywhere(self):
        h = Harness(3)
        h.boot()
        h.members["n0"].multicast("hello")
        h.run(until=1.0)
        for name in h.members:
            assert [m.payload for m in h.delivered[name]] == ["hello"]

    def test_sender_receives_own_message(self):
        h = Harness(2)
        h.boot()
        mid = h.members["n1"].multicast("mine")
        h.run(until=1.0)
        assert h.delivered_ids("n1") == [mid]

    def test_total_order_under_concurrent_senders(self):
        h = Harness(4)
        h.boot()
        for name in h.members:
            for k in range(5):
                h.members[name].multicast(f"{name}-{k}")
        h.run(until=2.0)
        assert h.contract.close() == []
        assert len(h.delivered["n0"]) == 20

    def test_delivery_preserves_sender_fifo(self):
        h = Harness(3)
        h.boot()
        for k in range(10):
            h.members["n2"].multicast(k)
        h.run(until=2.0)
        payloads = [m.payload for m in h.delivered["n0"] if m.sender == h.addr("n2")]
        assert payloads == list(range(10))

    def test_safe_message_delivered_with_service_tag(self):
        h = Harness(3)
        h.boot()
        h.members["n0"].multicast("s", service=SAFE)
        h.run(until=1.0)
        for name in h.members:
            [msg] = h.delivered[name]
            assert msg.service == SAFE

    def test_safe_and_agreed_interleave_in_one_order(self):
        h = Harness(3)
        h.boot()
        h.members["n0"].multicast("a0", service=AGREED)
        h.members["n1"].multicast("s0", service=SAFE)
        h.members["n2"].multicast("a1", service=AGREED)
        h.run(until=1.0)
        assert h.contract.close() == []
        assert len(h.delivered["n0"]) == 3

    def test_multicast_before_boot_rejected(self):
        h = Harness(2)
        with pytest.raises(NotInView):
            h.members["n0"].multicast("x")

    def test_bad_service_rejected(self):
        h = Harness(2)
        h.boot()
        with pytest.raises(GroupCommError):
            h.members["n0"].multicast("x", service="express")

    def test_reliable_under_message_loss(self):
        h = Harness(3, loss=0.15)
        h.boot()
        for k in range(10):
            h.members["n0"].multicast(k)
        h.run(until=5.0)
        assert h.contract.close() == []
        for name in h.members:
            assert len(h.delivered[name]) == 10

    def test_boot_requires_self_in_list(self):
        h = Harness(2)
        with pytest.raises(GroupCommError):
            h.members["n0"].boot([h.addr("n1")])

    def test_view_ids_and_members_on_boot(self):
        h = Harness(3)
        h.boot()
        h.run(until=0.5)
        for name in h.members:
            assert h.members[name].view.view_id == 1
            assert len(h.members[name].view.members) == 3


class TestFailures:
    def test_single_failure_installs_smaller_view(self):
        h = Harness(3)
        h.boot()
        h.run(until=0.5)
        h.crash("n2")
        h.run(until=3.0)
        for name in ("n0", "n1"):
            view = h.members[name].view
            assert view.size == 2
            assert h.addr("n2") not in view

    def test_messages_continue_after_failure(self):
        h = Harness(3)
        h.boot()
        h.run(until=0.5)
        h.crash("n0")  # the sequencer!
        h.run(until=3.0)
        h.members["n1"].multicast("after")
        h.run(until=4.0)
        for name in ("n1", "n2"):
            assert "after" in [m.payload for m in h.delivered[name]]

    def test_in_flight_message_of_survivor_not_lost(self):
        """n1 multicasts; the sequencer dies immediately; the message must
        still be delivered in the next view (sender survives)."""
        h = Harness(3)
        h.boot()
        h.run(until=0.5)
        h.members["n1"].multicast("precious")
        h.crash("n0")  # sequencer dies with ordering possibly unassigned
        h.run(until=5.0)
        for name in ("n1", "n2"):
            payloads = [m.payload for m in h.delivered[name]]
            assert payloads.count("precious") == 1

    def test_simultaneous_double_failure(self):
        h = Harness(4)
        h.boot()
        h.run(until=0.5)
        h.crash("n0")
        h.crash("n1")
        h.run(until=5.0)
        for name in ("n2", "n3"):
            assert h.members[name].view.size == 2
        h.members["n2"].multicast("still alive")
        h.run(until=6.0)
        assert [m.payload for m in h.delivered["n3"]][-1] == "still alive"

    def test_sequential_failures_down_to_one(self):
        h = Harness(4)
        h.boot()
        h.run(until=0.5)
        for i, name in enumerate(("n0", "n1", "n2")):
            h.crash(name)
            h.run(until=2.0 + 3.0 * i)
        survivor = h.members["n3"]
        assert survivor.view.size == 1
        survivor.multicast("last one standing")
        h.run(until=12.0)
        assert [m.payload for m in h.delivered["n3"]][-1] == "last one standing"

    def test_total_order_across_view_change(self):
        h = Harness(3, seed=7)
        h.boot()
        h.run(until=0.5)
        for k in range(5):
            h.members["n1"].multicast(f"a{k}")
        h.crash("n0")
        for k in range(5):
            h.members["n2"].multicast(f"b{k}")
        h.run(until=5.0)
        assert h.contract.close() == []
        assert len(h.delivered["n1"]) == len(h.delivered["n2"]) == 10

    def test_safe_message_during_failure_not_duplicated(self):
        h = Harness(3, seed=9)
        h.boot()
        h.run(until=0.5)
        h.members["n1"].multicast("mutex", service=SAFE)
        h.crash("n2")
        h.run(until=5.0)
        for name in ("n0", "n1"):
            payloads = [m.payload for m in h.delivered[name]]
            assert payloads.count("mutex") == 1

    def test_batched_sequencer_consistent_across_view_churn(self):
        """Regression companion for the stale-flusher fix at member level:
        back-to-back view changes while the sequencer batches assignments
        must never diverge the delivered order or drop survivors' traffic."""
        config = GroupConfig(
            heartbeat_interval=0.05,
            suspect_timeout=0.16,
            flush_timeout=0.3,
            retransmit_interval=0.02,
            sequencer_batch_delay=0.02,
        )
        h = Harness(4, config=config, seed=13)
        h.boot()
        h.run(until=0.5)
        for k in range(4):
            h.members["n2"].multicast(f"a{k}")
        h.crash("n0")  # sequencer dies with batches possibly pending
        h.run(until=1.0)
        for k in range(4):
            h.members["n3"].multicast(f"b{k}")
        h.crash("n1")  # and its successor dies right after taking over
        h.run(until=6.0)
        for k in range(4):
            h.members["n2"].multicast(f"c{k}")
        h.run(until=10.0)
        assert h.contract.close() == []
        for name in ("n2", "n3"):
            payloads = [m.payload for m in h.delivered[name]]
            # Survivors' messages all arrive, each exactly once.
            for k in range(4):
                assert payloads.count(f"a{k}") == 1
                assert payloads.count(f"b{k}") == 1
                assert payloads.count(f"c{k}") == 1

    def test_virtual_synchrony_same_views_same_messages(self):
        """Members sharing the same consecutive views delivered identical
        message sets between them."""
        h = Harness(3, seed=3)
        h.boot()
        h.run(until=0.5)
        for k in range(8):
            h.members[f"n{k % 3}"].multicast(k)
        h.crash("n2")
        h.run(until=5.0)
        # n0 and n1 installed the same view sequence.
        v0 = [(v.view_id, v.members) for v in h.views["n0"]]
        v1 = [(v.view_id, v.members) for v in h.views["n1"]]
        assert v0 == v1
        assert set(h.delivered_ids("n0")) == set(h.delivered_ids("n1"))
        assert h.contract.close() == []


class TestJoinLeave:
    def test_join_installs_bigger_view(self):
        h = Harness(2)
        h.boot()
        h.run(until=0.5)
        joiner = h.add_node("n9")
        joiner.join([h.addr("n0")])
        h.run(until=3.0)
        for name in ("n0", "n1", "n9"):
            assert h.members[name].view.size == 3

    def test_joiner_participates_after_join(self):
        h = Harness(2)
        h.boot()
        h.run(until=0.5)
        joiner = h.add_node("n9")
        joiner.join([h.addr("n1")])  # contact is NOT the coordinator
        h.run(until=3.0)
        joiner.multicast("newcomer speaks")
        h.run(until=4.0)
        for name in ("n0", "n1", "n9"):
            assert "newcomer speaks" in [m.payload for m in h.delivered[name]]

    def test_joiner_does_not_redeliver_history(self):
        h = Harness(2)
        h.boot()
        h.members["n0"].multicast("old news")
        h.run(until=1.0)
        joiner = h.add_node("n9")
        joiner.join([h.addr("n0")])
        h.run(until=4.0)
        assert all(m.payload != "old news" for m in h.delivered["n9"])

    def test_leave_shrinks_view(self):
        h = Harness(3)
        h.boot()
        h.run(until=0.5)
        h.members["n1"].leave()
        h.run(until=3.0)
        for name in ("n0", "n2"):
            assert h.members[name].view.size == 2
        assert h.members["n1"].state == "stopped"

    def test_restart_same_address_rejoins(self):
        h = Harness(3)
        h.boot()
        h.run(until=0.5)
        h.crash("n2")
        h.run(until=0.6)  # crash may not even be suspected yet
        h.net.set_node_up("n2", True)
        fresh = h.attach("n2")
        fresh.join([h.addr("n0")])
        h.run(until=5.0)
        assert fresh.state == "normal"
        assert fresh.view.size == 3
        fresh.multicast("back again")
        h.run(until=6.0)
        assert "back again" in [m.payload for m in h.delivered["n0"]]

    def test_a_joiner_on_another_wire_schema_is_refused_by_name(self, monkeypatch):
        h = Harness(2)
        h.boot()
        h.run(until=0.5)
        before = {name: h.members[name].view for name in ("n0", "n1")}
        foreign = "f" * 16
        assert WIRE.schema_digest() != foreign
        monkeypatch.setattr(
            recovery, "JoinReq", lambda joiner, schema: JoinReq(joiner, foreign))
        joiner = h.add_node("n9")
        joiner.join([h.addr("n0")])
        h.run(until=3.0)
        assert {name: h.members[name].view for name in ("n0", "n1")} == before
        assert joiner.state != "normal" and joiner.view is None
        refusals = [r for r in h.kernel.log.records if "refused join" in r.message]
        assert refusals and all(
            r.source == "gcs@n0:9" and r.message == (
                f"refused join of n9:9: its wire schema {foreign} is not "
                f"the group's {WIRE.schema_digest()}")
            for r in refusals)

    def test_join_requires_contacts(self):
        # With no contact but itself a joiner has nobody to ask: it stays
        # joining, sends nothing, and never forms a group on its own.
        h = Harness(2)
        lone = h.members["n0"]
        lone.join([h.addr("n0")])  # only self
        h.run(until=2.0)
        assert lone.state == JOINING and lone.view is None
        assert h.views["n0"] == [] and h.net.stats["sent"] == 0

    def test_sequential_joins(self):
        h = Harness(1)
        h.boot()
        h.run(until=0.3)
        for i in (5, 6, 7):
            joiner = h.add_node(f"n{i}")
            joiner.join([h.addr("n0")])
            h.run(until=0.3 + (i - 4) * 2.0)
        assert h.members["n0"].view.size == 4


class TestPartitions:
    def test_partition_then_heal_rejoins(self):
        h = Harness(3, seed=4)
        h.boot()
        h.run(until=0.5)
        h.net.partitions.set_partitions([["n0", "n1"], ["n2"]])
        h.run(until=3.0)
        majority_view = h.members["n0"].view
        assert majority_view.size == 2
        # n2 formed its own singleton view.
        assert h.members["n2"].view.size == 1
        h.net.partitions.heal_partitions()
        h.run(until=10.0)
        # After healing, the excluded side detects newer traffic and rejoins.
        sizes = {h.members[n].view.size for n in h.members}
        assert sizes == {3}


class TestCompetingFlushes:
    """Drive simultaneous flush initiators through the extracted
    :class:`~repro.gcs.flush.FlushEngine` directly (bypassing initiator
    election): epochs ``(new_view_id, attempt, initiator)`` are totally
    ordered, the higher epoch wins, and the loser abandons cleanly."""

    def test_higher_epoch_wins_and_group_converges(self):
        h = Harness(3, seed=11)
        h.boot()
        h.run(until=0.5)
        e0 = h.members["n0"].flush
        e1 = h.members["n1"].flush
        # Both members start an attempt for view 2 at the same instant.
        e0._start_attempt()
        e1._start_attempt()
        assert e0.attempt is not None and e1.attempt is not None
        # Same (view, attempt) counters -> the initiator address breaks the
        # tie, and n1 ranks above n0.
        assert e1.attempt.epoch > e0.attempt.epoch
        h.run(until=3.0)
        for name in h.members:
            member = h.members[name]
            assert member.state == "normal"
            assert member.view.view_id == 2
            assert member.view.size == 3
            # Everyone ended up promised to the *higher* epoch: n1 won.
            assert member.flush.max_epoch[2] == h.addr("n1")
            assert member.flush.attempt is None
        # One consistent view sequence everywhere — the race produced a
        # single view 2, not two.
        sequences = {
            tuple((v.view_id, v.members) for v in h.views[n]) for n in h.members
        }
        assert len(sequences) == 1

    def test_loser_abandons_attempt_on_higher_flush_req(self):
        from repro.gcs.messages import FlushReq

        h = Harness(3, seed=11)
        h.boot()
        h.run(until=0.5)
        member = h.members["n0"]
        engine = member.flush
        engine._start_attempt()
        losing = engine.attempt
        assert losing is not None
        higher = (losing.epoch[0], losing.epoch[1] + 1, h.addr("n1"))
        engine.on_flush_req(h.addr("n1"), FlushReq(higher))
        # The lower attempt is dropped, the higher epoch is promised, and
        # the member stays parked in FLUSHING awaiting the winner's view.
        assert engine.attempt is None
        assert engine.max_epoch == higher
        assert member.state == "flushing"

    def test_stale_flush_req_ignored_after_promise(self):
        from repro.gcs.messages import FlushReq

        h = Harness(3, seed=11)
        h.boot()
        h.run(until=0.5)
        engine = h.members["n2"].flush
        view = h.members["n2"].view
        higher = (view.view_id + 1, 2, h.addr("n1"))
        lower = (view.view_id + 1, 1, h.addr("n0"))
        engine.on_flush_req(h.addr("n1"), FlushReq(higher))
        assert engine.max_epoch == higher
        engine.on_flush_req(h.addr("n0"), FlushReq(lower))
        # The stale attempt neither demotes the promise nor resets state.
        assert engine.max_epoch == higher


class TestTokenOrdering:
    def make(self, n, seed=2):
        config = GroupConfig(
            heartbeat_interval=0.05,
            suspect_timeout=0.16,
            flush_timeout=0.3,
            retransmit_interval=0.02,
            ordering="token",
        )
        h = Harness(n, config=config, seed=seed)
        h.boot()
        return h

    def test_token_total_order(self):
        h = self.make(3)
        for k in range(4):
            for name in list(h.members):
                h.members[name].multicast(f"{name}/{k}")
        h.run(until=3.0)
        assert h.contract.close() == []
        assert len(h.delivered["n0"]) == 12

    def test_token_survives_holder_crash(self):
        h = self.make(3)
        h.run(until=0.5)
        h.crash("n0")  # coordinator (initial token holder region)
        h.run(until=3.0)
        h.members["n1"].multicast("post-crash")
        h.run(until=6.0)
        for name in ("n1", "n2"):
            assert "post-crash" in [m.payload for m in h.delivered[name]]

    def test_token_safe_delivery(self):
        h = self.make(2)
        h.members["n0"].multicast("tok-safe", service=SAFE)
        h.run(until=2.0)
        for name in ("n0", "n1"):
            [m] = h.delivered[name]
            assert m.service == SAFE
