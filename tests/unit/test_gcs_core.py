"""Unit tests for GCS building blocks: config, view, delivery queue, detector."""

import os
import subprocess
import sys

import pytest

from repro.gcs import GroupConfig, View
from repro.gcs.delivery import DeliveryQueue
from repro.gcs.failure_detector import FailureDetector
from repro.gcs.messages import AGREED, SAFE, DataMsg, Heartbeat, MessageId
from repro.net import Address, Network, Transport
from repro.net.codec import WIRE
from repro.net.frames import RawFrame
from repro.net.network import DATAGRAM_OVERHEAD
from repro.sim import Kernel
from repro.util.errors import GroupCommError, MembershipError
from tests.integration.conftest import SANITIZE, assert_sanitizer_clean

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: One detector monitoring four peers handed over in scrambled order; prints
#: ``<tick time> <dst exactly as the fabric's entry point received it>``.
_BEACON_SCRIPT = """
from repro.gcs.failure_detector import FailureDetector
from repro.gcs.messages import Heartbeat
from repro.net import Address, Network, Transport
from repro.sim import Kernel

kernel = Kernel(seed=5)
net = Network(kernel, shared_medium=False)
for name in ("n1", "n2", "n3", "n4", "n5"):
    net.register_node(name)
inner = net.send
def spy(src, dst, payload):
    print(f"{kernel.now:.1f}", ",".join(map(str, dst)))
    return inner(src, dst, payload)
net.send = spy
fd = FailureDetector(Transport(net.bind("n1", 9)),
                     heartbeat_interval=0.1, suspect_timeout=0.35,
                     beacon=lambda: Heartbeat(1, -1))
fd.monitor([Address(n, 9) for n in ("n4", "n2", "n5", "n1", "n3")])
kernel.run(until=0.55)
"""


def addr(i: int) -> Address:
    return Address(f"n{i}", 9)


def idle_beacon() -> Heartbeat:
    """What a member with nothing acked in view 1 beacons."""
    return Heartbeat(1, -1)


class TestGroupConfig:
    def test_defaults_valid(self):
        GroupConfig()

    def test_suspect_must_exceed_heartbeat(self):
        with pytest.raises(GroupCommError):
            GroupConfig(heartbeat_interval=1.0, suspect_timeout=0.5)

    def test_ordering_choices(self):
        GroupConfig(ordering="token")
        with pytest.raises(GroupCommError):
            GroupConfig(ordering="lexicographic")

    def test_positive_timing(self):
        with pytest.raises(GroupCommError):
            GroupConfig(heartbeat_interval=0)
        with pytest.raises(GroupCommError):
            GroupConfig(flush_timeout=0)
        with pytest.raises(GroupCommError):
            GroupConfig(sequencer_batch_delay=-1)


class TestView:
    def test_coordinator_is_lowest(self):
        v = View(1, (addr(1), addr(2), addr(3)))
        assert v.coordinator == addr(1)

    def test_rank_and_contains(self):
        v = View(1, (addr(1), addr(2)))
        assert v.rank_of(addr(2)) == 1
        assert addr(1) in v
        with pytest.raises(MembershipError):
            v.rank_of(addr(9))

    def test_validation(self):
        with pytest.raises(MembershipError):
            View(1, ())
        with pytest.raises(MembershipError):
            View(-1, (addr(1),))
        with pytest.raises(MembershipError):
            View(1, (addr(2), addr(1)))  # unsorted
        with pytest.raises(MembershipError):
            View(1, (addr(1), addr(1)))  # duplicate


def mk_data(sender: int, counter: int, view_id: int = 1, service: str = AGREED, payload="p"):
    return DataMsg(MessageId(addr(sender), counter), view_id, service, payload)


class TestDeliveryQueue:
    def make(self, n=3):
        q = DeliveryQueue(addr(1))
        view = View(1, tuple(addr(i) for i in range(1, n + 1)))
        q.start_view(view, ())
        return q, view

    def test_agreed_needs_data_and_order(self):
        q, _ = self.make()
        data = mk_data(1, 0)
        q.add_data(data)
        assert q.pop_deliverable() == []
        q.add_assignments([(0, data.msg_id)])
        [msg] = q.pop_deliverable()
        assert msg.seq == 0 and msg.payload == "p"

    def test_order_before_data(self):
        q, _ = self.make()
        data = mk_data(1, 0)
        q.add_assignments([(0, data.msg_id)])
        assert q.pop_deliverable() == []
        q.add_data(data)
        assert len(q.pop_deliverable()) == 1

    def test_gap_blocks_delivery(self):
        q, _ = self.make()
        d0, d1 = mk_data(1, 0), mk_data(1, 1)
        q.add_data(d1)
        q.add_assignments([(1, d1.msg_id)])
        assert q.pop_deliverable() == []  # seq 0 missing
        q.add_data(d0)
        q.add_assignments([(0, d0.msg_id)])
        assert [m.seq for m in q.pop_deliverable()] == [0, 1]

    def test_safe_waits_for_all_members(self):
        q, view = self.make(3)
        d = mk_data(1, 0, service=SAFE)
        q.add_data(d)
        q.add_assignments([(0, d.msg_id)])
        q.record_stable(addr(1), 0)
        q.record_stable(addr(2), 0)
        assert q.pop_deliverable() == []  # addr(3) has not acked
        q.record_stable(addr(3), 0)
        [msg] = q.pop_deliverable()
        assert msg.service == SAFE

    def test_unstable_safe_blocks_later_agreed(self):
        q, _ = self.make(2)
        safe = mk_data(1, 0, service=SAFE)
        agreed = mk_data(1, 1)
        q.add_data(safe); q.add_data(agreed)
        q.add_assignments([(0, safe.msg_id), (1, agreed.msg_id)])
        q.record_stable(addr(1), 1)
        assert q.pop_deliverable() == []  # safe at 0 not stable at addr(2)
        q.record_stable(addr(2), 1)
        assert [m.seq for m in q.pop_deliverable()] == [0, 1]

    def test_duplicate_data_ignored(self):
        q, _ = self.make()
        d = mk_data(1, 0)
        assert q.add_data(d) is True
        assert q.add_data(d) is False

    def test_conflicting_assignment_rejected(self):
        q, _ = self.make()
        q.add_assignments([(0, MessageId(addr(1), 0))])
        with pytest.raises(GroupCommError):
            q.add_assignments([(0, MessageId(addr(2), 5))])

    def test_idempotent_assignment_ok(self):
        q, _ = self.make()
        q.add_assignments([(0, MessageId(addr(1), 0))])
        q.add_assignments([(0, MessageId(addr(1), 0))])

    def test_closing_injection_preorders_messages(self):
        q = DeliveryQueue(addr(1))
        view = View(2, (addr(1), addr(2)))
        closing = [
            (MessageId(addr(2), 0), AGREED, "x"),
            (MessageId(addr(2), 1), AGREED, "y"),
        ]
        q.start_view(view, closing)
        msgs = q.pop_deliverable()
        assert [m.payload for m in msgs] == ["x", "y"]

    def test_closing_safe_waits_for_stability(self):
        q = DeliveryQueue(addr(1))
        view = View(2, (addr(1), addr(2)))
        q.start_view(view, [(MessageId(addr(2), 0), SAFE, "x")])
        assert q.pop_deliverable() == []
        q.record_stable(addr(1), 0)
        q.record_stable(addr(2), 0)
        assert len(q.pop_deliverable()) == 1

    def test_dedup_across_views(self):
        q, _ = self.make(2)
        d = mk_data(2, 0)
        q.add_data(d)
        q.add_assignments([(0, d.msg_id)])
        assert len(q.pop_deliverable()) == 1
        # Same message re-appears in the next view's closing.
        view2 = View(2, (addr(1), addr(2)))
        q.start_view(view2, [(d.msg_id, AGREED, "p"), (MessageId(addr(2), 1), AGREED, "q")])
        msgs = q.pop_deliverable()
        assert [m.payload for m in msgs] == ["q"]  # duplicate skipped, cursor advanced

    def test_stable_ignores_unknown_member(self):
        q, _ = self.make(2)
        q.record_stable(addr(99), 5)  # silently ignored
        assert q.stable_through() == -1

    def test_flush_report_shape(self):
        q, _ = self.make(2)
        d = mk_data(1, 0)
        q.add_data(d)
        q.add_assignments([(0, d.msg_id)])
        q.pop_deliverable()
        known, orderings, delivered = q.flush_report()
        assert known == ((d.msg_id, (AGREED, "p")),)
        assert orderings == ((0, d.msg_id),)
        # One (sender, runs) entry: addr(1)'s counters [0, 1).
        assert delivered == ((addr(1), (0, 1)),)

    def test_agreed_ready_through(self):
        q, _ = self.make()
        d0, d2 = mk_data(1, 0), mk_data(1, 2)
        q.add_data(d0); q.add_data(d2)
        q.add_assignments([(0, d0.msg_id), (2, d2.msg_id)])
        assert q.agreed_ready_through() == 0  # gap at 1


class TestFailureDetector:
    def make_pair(self):
        kernel = Kernel(seed=5)
        net = Network(kernel, shared_medium=False)
        net.register_node("n1")
        net.register_node("n2")
        t1 = Transport(net.bind("n1", 9))
        t2 = Transport(net.bind("n2", 9))
        suspects1 = []
        fd1 = FailureDetector(
            t1, heartbeat_interval=0.1, suspect_timeout=0.35, beacon=idle_beacon,
            on_suspect=suspects1.append,
        )
        fd2 = FailureDetector(
            t2, heartbeat_interval=0.1, suspect_timeout=0.35, beacon=idle_beacon)
        t1.on_raw(lambda src, p: fd1.heard_from(src))
        t2.on_raw(lambda src, p: fd2.heard_from(src))
        fd1.monitor([Address("n1", 9), Address("n2", 9)])
        fd2.monitor([Address("n1", 9), Address("n2", 9)])
        return kernel, net, fd1, fd2, suspects1

    def test_live_peer_not_suspected(self):
        kernel, _, fd1, _, suspects = self.make_pair()
        kernel.run(until=5.0)
        assert suspects == []
        assert fd1.suspected == set()

    def test_crashed_peer_suspected(self):
        kernel, net, fd1, fd2, suspects = self.make_pair()
        kernel.run(until=1.0)
        net.set_node_up("n2", False)
        fd2.stop()
        kernel.run(until=3.0)
        assert suspects == [Address("n2", 9)]

    def test_suspicion_sticky_until_forgiven(self):
        kernel, net, fd1, fd2, suspects = self.make_pair()
        net.partitions.cut_link("n1", "n2")
        kernel.run(until=2.0)
        assert Address("n2", 9) in fd1.suspected
        net.partitions.restore_link("n1", "n2")
        kernel.run(until=4.0)
        # Heartbeats flow again but suspicion persists until forgiven.
        assert Address("n2", 9) in fd1.suspected
        fd1.forgive(Address("n2", 9))
        kernel.run(until=6.0)
        assert Address("n2", 9) not in fd1.suspected

    def test_self_excluded_from_monitoring(self):
        kernel, _, fd1, _, _ = self.make_pair()
        assert Address("n1", 9) not in fd1._peers

    def test_unmonitored_peer_clears_suspicion(self):
        kernel, net, fd1, fd2, _ = self.make_pair()
        net.partitions.cut_link("n1", "n2")
        kernel.run(until=2.0)
        fd1.monitor([Address("n1", 9)])
        assert fd1.suspected == set()

    def test_suspect_callback_once(self):
        kernel, net, fd1, fd2, suspects = self.make_pair()
        net.set_node_up("n2", False)
        fd2.stop()
        kernel.run(until=5.0)
        assert len(suspects) == 1

    def test_detector_survives_network_blackout(self):
        """Regression: the heartbeat loop must pause, not exit, while its
        own node is off the network — a frozen node that thaws has to
        resume heartbeating or every peer wrongly suspects it forever."""
        kernel, net, fd1, fd2, suspects = self.make_pair()
        kernel.run(until=1.0)
        net.pause_node("n1")
        kernel.run(until=1.2)  # loop observes the blackout
        net.resume_node("n1")
        kernel.run(until=1.3)
        # Pre-fix the loop returned permanently: n1 never heartbeats again
        # and n2 suspects it despite the node being back.
        kernel.run(until=3.0)
        assert Address("n1", 9) not in fd2.suspected

    def test_heartbeat_emission_order_is_sorted(self):
        """Regression (found by the determinism sanitizer): heartbeats used
        to go out in ``self._peers`` set-iteration order, so the wire order
        — and with it every downstream timestamp — depended on the process
        hash seed. Each tick is one frame, and the group the detector hands
        the fabric is the sorted peer set whatever the hash seed."""
        expected = [
            f"{0.1 * tick:.1f} n2:9,n3:9,n4:9,n5:9" for tick in range(1, 6)
        ]
        for hash_seed in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", _BEACON_SCRIPT],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=_SRC),
                capture_output=True, text=True, check=True,
            )
            assert out.stdout.split("\n")[:-1] == expected, hash_seed

    def test_blackout_rearm_forgives_own_stale_silence(self):
        """Thawing must also reset the *local* last-heard clock: during the
        blackout n1 heard nobody, and without the re-arm it would instantly
        suspect every peer on wake-up."""
        kernel, net, fd1, fd2, suspects = self.make_pair()
        kernel.run(until=1.0)
        net.pause_node("n1")
        kernel.run(until=2.5)  # well past the suspect timeout
        net.resume_node("n1")
        kernel.run(until=2.65)  # less than suspect_timeout after thawing
        assert Address("n2", 9) not in fd1.suspected
    # -- n members on the hub, one beacon frame per member per tick -----------

    def make_group(self, n):
        kernel = Kernel(seed=5, sanitize=SANITIZE)
        net = Network(kernel)
        members = [addr(i) for i in range(n)]
        suspicions = []
        for me in members:
            net.register_node(me.node)
            transport = Transport(net.bind(me.node, me.port))
            fd = FailureDetector(
                transport, heartbeat_interval=0.1, suspect_timeout=0.35,
                beacon=idle_beacon,
                on_suspect=lambda peer, me=me: suspicions.append(
                    (kernel.now, me.node, peer.node)),
            )
            transport.on_raw(lambda src, _hb, fd=fd: fd.heard_from(src))
            fd.monitor(members)
        return kernel, net, suspicions

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_crashed_peer_suspected_at_the_parent_instant(self, n):
        """Detection timing is untouched by the group beacon: every survivor
        suspects the crashed peer at the instant the per-peer loop did
        (recorded from the commit before the group send: 1.4000000000000001
        for every survivor at n = 3, 4 and 5)."""
        kernel, net, suspicions = self.make_group(n)
        kernel.run(until=1.03)
        net.set_node_up("n0", False)
        kernel.run(until=3.0)
        assert suspicions == [
            (1.4000000000000001, f"n{i}", "n0") for i in range(1, n)
        ]
        assert_sanitizer_clean(kernel)

    def test_asymmetric_loss_is_seen_by_the_deaf_receiver_only(self):
        """n0's beacon is one frame, but losing it is per receiver: n2 stops
        hearing n0 and suspects it; n1 hears the same frames and does not."""
        kernel, net, suspicions = self.make_group(3)
        net.add_drop_filter(lambda s, d, p: s.node == "n0" and d.node == "n2")
        kernel.run(until=3.0)
        assert [(who, peer) for _t, who, peer in suspicions] == [("n2", "n0")]
        assert net.stats["dropped_filtered"] > 0
        assert_sanitizer_clean(kernel)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_idle_beacon_bytes_are_linear_in_group_size(self, n):
        """100 ticks of an idle group: n beacon frames per tick on the wire
        (the per-peer loop cost n * (n - 1)), each the pinned size of one
        ``Heartbeat(view_id, acked_through)`` datagram."""
        beacon_bytes = len(WIRE.encode(RawFrame(idle_beacon()))) + DATAGRAM_OVERHEAD
        # 64 with the float ``sent_at``; 59 while each of the two records
        # carried a schema fingerprint and field count; 53 while each head
        # spelled its class name (``RawFrame``, ``Heartbeat``), not one
        # number byte.
        assert beacon_bytes == 34
        kernel, net, suspicions = self.make_group(n)
        kernel.run(until=10.05)
        assert net.wire_bytes_by_type == {"Heartbeat": n * 100 * beacon_bytes}
        assert net.stats["sent"] == n * 100
        assert net.stats["delivered"] == n * (n - 1) * 100
        assert suspicions == []
        assert_sanitizer_clean(kernel)

