"""The stability-ack plane: ``StableMsg`` is one unreliable group frame per
ack and the beacon repairs a lost one (PROTOCOLS.md §2.2).

Two traps the design had to avoid, and one rule, are pinned here. (1) The
beacon is checked against what was heard *on arrival*, not against the
delivery queue: a beacon that overtakes a ``StableMsg`` still waiting for its
CPU slot must not charge a second slot, or the closed loop tips into its slow
mode (median jsub 303 sim-ms instead of 228). (2) The beacon announces what
the last ``StableMsg`` *sent* carried, never the value stamped when a
deferred ack is scheduled. (3) The rule: a deferred ack that announces
nothing new is not sent. Every member would pay a CPU slot to read it, and
past four heads those slots are the latency.
"""

import statistics
from dataclasses import replace

import pytest

from repro.cluster import Cluster
from repro.gcs.messages import SAFE, Heartbeat, OrderMsg, StableMsg
from repro.joshua import JOSHUA_GROUP_CONFIG, build_joshua_stack
from tests.integration.conftest import SANITIZE, assert_sanitizer_clean
from tests.unit.test_gcs_member import FAST, Harness


def inner(payload):
    """The protocol message inside a transport envelope (or *payload*)."""
    return getattr(payload, "payload", payload)


class TestNoRepeatedAck:
    @pytest.mark.parametrize("ordering", ["sequencer", "token"])
    def test_every_ack_a_member_sends_announces_more(self, ordering):
        """Within a view, each StableMsg a member sends carries more than
        the one before it: a deferral that fires after a later one already
        covered its ORDER stays silent."""
        cluster = Cluster(head_count=3, compute_count=2, login_node=True,
                          seed=11, sanitize=SANITIZE)
        stack = build_joshua_stack(
            cluster, group_config=replace(JOSHUA_GROUP_CONFIG, ordering=ordering))
        kernel = cluster.kernel
        sent, repeats = [], []
        for head in stack.head_names:
            member = stack.joshua(head).group
            last = {}

            def spy(dst, payload, member=member, last=last,
                    send_raw=member.transport.send_raw):
                if isinstance(payload, StableMsg):
                    sent.append(payload)
                    if payload.acked_through <= last.get(payload.view_id, -1):
                        repeats.append((kernel.now, str(member.address), payload))
                    last[payload.view_id] = payload.acked_through
                return send_raw(dst, payload)

            member.transport.send_raw = spy
        cluster.run(until=2.0)

        def client(c):
            session = stack.client("login", prefer=f"head{c % 3}", timeout=60.0)
            yield kernel.timeout(0.05 * c)
            for j in range(12):
                yield from session.jsub(name=f"c{c}j{j}", walltime=1e5)

        clients = [kernel.spawn(client(c), name=f"client{c}") for c in range(4)]
        for proc in clients:
            cluster.run(until=proc)
        assert len(sent) > 50, "few stability acks seen: test is vacuous"
        assert repeats == []
        assert_sanitizer_clean(kernel)


class TestHeadCountStress:
    def test_eight_heads_stay_on_the_line(self):
        """The head-count stress probe at 8 heads: 40 sequential jsubs from
        the login node. With every repeated ack in every member's CPU
        queue it read 1 071 sim-ms a jsub."""
        cluster = Cluster(head_count=8, compute_count=2, login_node=True,
                          seed=11, sanitize=SANITIZE)
        stack = build_joshua_stack(cluster)
        kernel = cluster.kernel
        cluster.run(until=2.0)
        client = stack.client("login", timeout=60.0)
        latencies = []

        def submit():
            for index in range(40):
                start = kernel.now
                yield from client.jsub(name=f"s{index:03d}", walltime=0.5)
                latencies.append(kernel.now - start)

        cluster.run(until=kernel.spawn(submit(), name="stress-client"))
        assert len(latencies) == 40
        assert statistics.mean(latencies) < 0.600
        assert_sanitizer_clean(kernel)


class TestLossFreeRunNeverRepairs:
    @pytest.mark.parametrize("seed", [11, 7919, 1, 2, 3])
    def test_closed_loop_stays_in_its_fast_mode(self, seed):
        cluster = Cluster(head_count=3, compute_count=2, login_node=True,
                          seed=seed, sanitize=SANITIZE)
        stack = build_joshua_stack(cluster)
        kernel = cluster.kernel
        cluster.run(until=2.0)
        latencies = []

        def client(c):
            session = stack.client("login", prefer=f"head{c % 3}", timeout=60.0)
            yield kernel.timeout(0.05 * c)
            for j in range(12):
                start = kernel.now
                yield from session.jsub(name=f"c{c}j{j}", walltime=1e5)
                latencies.append(kernel.now - start)

        clients = [kernel.spawn(client(c), name=f"client{c}") for c in range(4)]
        for proc in clients:
            cluster.run(until=proc)
        assert len(latencies) == 48
        assert statistics.median(latencies) < 0.250
        for head in stack.head_names:
            assert stack.joshua(head).group.stats["stable_repairs"] == 0
        assert_sanitizer_clean(kernel)

    def test_beacon_never_runs_ahead_of_the_deferred_ack(self):
        """Every beacon a member emits between an ORDER's arrival and its
        deferred ack firing carries the *old* value: on the wire, a sender's
        beacon never exceeds its last StableMsg."""
        h = Harness(3, config=JOSHUA_GROUP_CONFIG, sanitize=SANITIZE)
        h.boot()
        last_sent, early, in_window = {}, [], []
        n1 = h.members["n1"]
        send = h.net.send

        def spy(src, dst, payload):
            msg = inner(payload)
            if isinstance(msg, StableMsg):
                last_sent[src] = msg.acked_through
            elif isinstance(msg, Heartbeat):
                if msg.acked_through > last_sent.get(src, -1):
                    early.append((h.kernel.now, src, msg))
                if src == n1.address and n1._last_stable_sent > n1._stable_announced:
                    in_window.append(msg)
            return send(src, dst, payload)

        h.net.send = spy

        def driver():
            # 0.02 s apart: ORDER arrivals (and the base + slot * rank ack
            # deferrals they start) fall all over the 0.25 s beacon period.
            for k in range(30):
                h.members[f"n{k % 3}"].multicast(k, service=SAFE)
                yield h.kernel.timeout(0.02)

        h.kernel.spawn(driver())
        h.run(until=6.0)
        assert all(len(h.delivered[name]) == 30 for name in h.members)
        assert in_window, "no beacon fell inside an ack deferral: test is vacuous"
        assert early == []
        assert_sanitizer_clean(h.kernel)


class TestBeaconOnlyRepair:
    @pytest.mark.parametrize("config", [FAST, JOSHUA_GROUP_CONFIG],
                             ids=["fast", "joshua"])
    def test_safe_delivery_with_every_stable_frame_dropped(self, config):
        h = Harness(3, config=config, sanitize=SANITIZE)
        h.boot()
        # Every copy, a member's own loopback copy included.
        h.net.add_drop_filter(
            lambda src, dst, payload: isinstance(inner(payload), StableMsg)
        )
        last_order = []
        send = h.net.send

        def spy(src, dst, payload):
            if isinstance(inner(payload), OrderMsg):
                last_order[:] = [h.kernel.now]
            return send(src, dst, payload)

        h.net.send = spy
        delivered_at = []
        for member in h.members.values():
            deliver = member.on_deliver
            member.on_deliver = lambda m, deliver=deliver: (
                deliver(m), delivered_at.append(h.kernel.now))
        ids = [h.members["n0"].multicast(k, service=SAFE) for k in range(5)]
        h.run(until=5.0)
        for name in h.members:
            assert h.delivered_ids(name) == ids
            assert h.members[name].stats["stable_repairs"] > 0
        # The last ack is lost like every other. It leaves its sender one
        # deferral after the ORDER; a peer hears it on the sender's next
        # beacon and the sender itself on the one after (two ticks running
        # announce it), plus the CPU slots queued ahead of the repair.
        deferral = config.stable_ack_base + 2 * config.stable_ack_slot
        cpu = 12 * config.processing_delay
        assert max(delivered_at) - last_order[0] <= (
            deferral + 2 * config.heartbeat_interval + cpu)
        assert h.net.stats["dropped_filtered"] > 0
        assert_sanitizer_clean(h.kernel)

    @pytest.mark.parametrize("view_id", [0, 2])
    def test_beacon_of_another_view_is_liveness_only(self, view_id):
        h = Harness(3)
        h.boot()
        h.run(until=0.5)
        n0 = h.members["n0"]
        assert n0.view.view_id == 1
        n0._on_raw(h.addr("n1"), Heartbeat(view_id, 7))
        h.run(until=1.0)
        assert n0.stats["stable_repairs"] == 0
        assert n0.recovery.future == {}
        assert n0.queue.stable_through() == -1
        assert h.addr("n1") not in n0.detector.suspected


class TestOwnCopyIsRepaired:
    """No beacon comes back to its sender: a member repairs the copy of its
    own ack that the loopback lost as it builds its own beacon, once two
    ticks running announce that ack (on the first it may still be in
    flight)."""

    def test_ack_fired_inside_a_freeze_reaches_its_own_sender(self):
        """A 0.2 s network freeze (under ``suspect_timeout``: the head is
        delayed, not excluded) that starts inside an ack deferral swallows
        the whole group frame, the sender's copy with it. With no further
        traffic the SAFE message still delivers at the frozen head, within
        two beacons of the thaw."""
        config = JOSHUA_GROUP_CONFIG
        h = Harness(3, config=config, sanitize=SANITIZE)
        h.boot()
        h.run(until=1.0)
        n1 = h.members["n1"]
        thawed = []

        def freezer():
            while n1._last_stable_sent <= n1._stable_announced:
                yield h.kernel.timeout(0.001)
            h.net.pause_node("n1")  # the deferred ack is scheduled, not sent
            yield h.kernel.timeout(0.2)
            assert n1._stable_announced == 0 and n1.queue.stable_through() == -1
            h.net.resume_node("n1")
            thawed.append(h.kernel.now)

        h.kernel.spawn(freezer())
        delivered_at = []
        deliver = n1.on_deliver
        n1.on_deliver = lambda m: (deliver(m), delivered_at.append(h.kernel.now))
        msg_id = h.members["n0"].multicast("only", service=SAFE)
        h.run(until=4.0)
        for name in h.members:
            assert h.delivered_ids(name) == [msg_id]
            assert h.members[name].view.size == 3
        assert n1.stats["stable_repairs"] == 3  # its own ack and both peers'
        assert delivered_at[0] - thawed[0] <= (
            2 * config.heartbeat_interval + 6 * config.processing_delay)
        assert_sanitizer_clean(h.kernel)

    def test_alone_in_the_view(self):
        h = Harness(1, config=JOSHUA_GROUP_CONFIG)
        h.boot()
        msg_id = h.members["n0"].multicast("only", service=SAFE)
        h.run(until=0.015)  # DATA handled; the ORDER waits for its CPU slot
        h.net.pause_node("n0")
        h.run(until=0.1)  # handled and acked at once: the ack is swallowed
        h.net.resume_node("n0")
        h.run(until=1.0)
        assert h.delivered_ids("n0") == [msg_id]
        assert h.members["n0"].stats["stable_repairs"] == 1


class TestRejoinAcrossLineages:
    @pytest.mark.parametrize("crashes", [["n7", "n6"], ["n7"]],
                             ids=["lower-numbered", "same-numbered"])
    def test_no_spurious_suppression_no_spurious_repair(self, crashes):
        """Half the group splits off, shrinks (to view 4, or only to view
        3) and, the split healed, loses the merge: its survivors re-enter
        the other half's lineage in *its* view 3. What they heard from each
        other before (acks through 5) says nothing about that view, whether
        its number is below theirs or the same."""
        h = Harness(8, seed=4)
        h.boot()
        h.run(until=0.5)
        h.net.partitions.set_partitions(
            [["n0", "n1", "n2", "n3"], ["n4", "n5", "n6", "n7"]])
        h.run(until=3.0)
        for k, name in enumerate(crashes):
            h.crash(name)
            h.run(until=6.0 + 3.0 * k)
        n4, n5 = h.members["n4"], h.members["n5"]
        left = n4.view.view_id
        assert left == 2 + len(crashes) and n4.view.size == 4 - len(crashes)
        old = [n4.multicast(k, service=SAFE) for k in range(6)]
        h.run(until=10.0)
        assert h.delivered_ids("n5") == old
        assert n4._stable_heard[left][n5.address] == 5
        h.net.partitions.heal_partitions()
        h.run(until=12.0)
        live = h.live_names()
        assert {h.members[n].view.view_id for n in live} == {3}
        assert {h.members[n].view.size for n in live} == {8 - len(crashes)}

        # Loss-free: every ack arrives as a StableMsg, no beacon repairs.
        first = [n4.multicast(k, service=SAFE) for k in range(3)]
        h.run(until=13.0)
        for name in live:
            assert h.delivered_ids(name)[-3:] == first
            assert h.members[name].stats["stable_repairs"] == 0
        # Every ack lost: acks 3..5 of this view 3 are repaired, not
        # mistaken for the 5 already heard in the view they left.
        h.net.add_drop_filter(
            lambda src, dst, payload: isinstance(inner(payload), StableMsg))
        second = [n4.multicast(k, service=SAFE) for k in range(3)]
        h.run(until=14.0)
        for name in live:
            assert h.delivered_ids(name)[-3:] == second
            assert h.members[name].stats["stable_repairs"] > 0
