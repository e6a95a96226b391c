"""Adversarial GCS scenarios: failures during membership changes, loss
during view changes, joins racing crashes, flapping links."""

import pytest

from repro.gcs import GroupConfig
from repro.gcs.messages import SAFE, NewView

from tests.integration.conftest import SANITIZE, assert_sanitizer_clean
from tests.unit.test_gcs_member import FAST, Harness


class TestCoordinatorDeathDuringFlush:
    def test_watchdog_takes_over_stalled_flush(self):
        """n0 (initiator) dies immediately after n1 — the flush n0 started
        for n1's death stalls; n2's watchdog must finish the job."""
        h = Harness(3, seed=21)
        h.boot()
        h.run(until=0.5)
        h.crash("n1")
        # Give n0 just enough time to suspect and start flushing, then
        # kill it too.
        h.run(until=0.5 + FAST.suspect_timeout + 0.05)
        h.crash("n0")
        h.run(until=10.0)
        survivor = h.members["n2"]
        assert survivor.view.size == 1
        survivor.multicast("alone but alive")
        h.run(until=12.0)
        assert [m.payload for m in h.delivered["n2"]][-1] == "alone but alive"

    def test_cascade_during_safe_traffic(self):
        h = Harness(4, seed=22)
        h.boot()
        h.run(until=0.5)
        for k in range(3):
            h.members["n3"].multicast(f"s{k}", service=SAFE)
        h.crash("n0")
        h.run(until=1.0)
        h.crash("n1")
        h.run(until=10.0)
        assert h.contract.close() == []
        # n3 survived; its SAFE messages must all be delivered exactly once.
        payloads = [m.payload for m in h.delivered["n2"]]
        assert sorted(payloads) == ["s0", "s1", "s2"]


#: Loss-tolerant detector: with 20 % datagram loss, a 3-heartbeat timeout
#: false-suspects constantly (p ~ 0.8 % per window, dozens of windows per
#: run); ~10 heartbeats of slack makes false suspicion negligible. This is
#: exactly the timeout-vs-loss tuning a real deployment does.
LOSSY = GroupConfig(
    heartbeat_interval=0.05,
    suspect_timeout=0.55,
    flush_timeout=0.8,
    retransmit_interval=0.02,
)


class TestLossDuringViewChange:
    def test_view_change_completes_under_loss(self):
        h = Harness(3, config=LOSSY, seed=23, loss=0.2)
        h.boot()
        h.run(until=0.5)
        for k in range(3):
            h.members["n1"].multicast(k)
        h.crash("n0")
        h.run(until=15.0)
        assert h.members["n1"].view.size == 2
        assert h.members["n2"].view.size == 2
        assert h.contract.close() == []
        assert len(h.delivered["n1"]) == 3

    def test_join_completes_under_loss(self):
        h = Harness(2, config=LOSSY, seed=24, loss=0.15)
        h.boot()
        h.run(until=0.5)
        joiner = h.add_node("n9")
        joiner.join([h.addr("n0")])
        h.run(until=15.0)
        assert joiner.state == "normal"
        assert joiner.view.size == 3


class TestJoinRacingFailure:
    def test_join_and_crash_in_same_window(self):
        """A member dies at the same moment another joins: one or two view
        changes later, the group is {survivor, joiner}."""
        h = Harness(2, seed=25)
        h.boot()
        h.run(until=0.5)
        joiner = h.add_node("n9")
        joiner.join([h.addr("n1")])
        h.crash("n0")
        h.run(until=10.0)
        assert joiner.state == "normal"
        assert {m.node for m in h.members["n1"].view.members} == {"n1", "n9"}
        joiner.multicast("made it")
        h.run(until=12.0)
        assert "made it" in [m.payload for m in h.delivered["n1"]]

    def test_joiner_dies_mid_join(self):
        """The group must not wedge waiting for a dead joiner's FlushOk."""
        h = Harness(2, seed=26)
        h.boot()
        h.run(until=0.5)
        joiner = h.add_node("n9")
        joiner.join([h.addr("n0")])
        h.run(until=0.55)  # join underway
        h.crash("n9")
        h.run(until=10.0)
        assert h.members["n0"].state == "normal"
        h.members["n0"].multicast("unwedged")
        h.run(until=12.0)
        assert "unwedged" in [m.payload for m in h.delivered["n1"]]


class TestFlappingLink:
    def test_system_stabilises_after_flapping(self):
        """A link that flaps several times (false suspicions both ways)
        must converge to one full view once it stays up."""
        h = Harness(3, seed=27)
        h.boot()
        h.run(until=0.5)
        for _round in range(3):
            h.net.partitions.cut_link("n0", "n2")
            h.run(until=h.kernel.now + 1.0)
            h.net.partitions.restore_link("n0", "n2")
            h.run(until=h.kernel.now + 1.0)
        h.run(until=h.kernel.now + 15.0)
        live = [m for m in h.members.values() if m.state == "normal"]
        assert live, "nobody recovered"
        sizes = {m.view.size for m in live}
        assert sizes == {3}, f"views did not converge: {sizes}"
        # And the converged group still works.
        h.members["n1"].multicast("steady state")
        h.run(until=h.kernel.now + 2.0)
        deliverers = [
            name for name in h.members
            if "steady state" in [m.payload for m in h.delivered[name]]
        ]
        assert len(deliverers) == 3


class TestExclusionVerdict:
    def test_member_that_missed_a_view_rejoins_through_future_traffic(self):
        """``RecoveryTracker.future_stale`` -> ``rejoin_after_exclusion``:
        the group moved on without a member that keeps hearing it.

        A member the group *excluded* hears nothing of the new view — beacons
        and multicasts go to the view's members — and comes back through
        ``handle_probe`` once its own detector has made it a singleton. The
        exclusion verdict is for the member the new view *contains* but
        whose ``NewView`` never arrived: here an asymmetric filter eats
        exactly the view frames on n2's inbound side while a fourth member
        joins. n2 falls back to NORMAL in the old view, buffers the new
        view's traffic for a flush timeout, and must rejoin through whoever
        is talking — no probe involved, nothing delivered twice, the
        survivors' order."""
        h = Harness(3, seed=31, sanitize=SANITIZE)
        h.boot()
        for k in range(2):
            h.members["n0"].multicast(f"before{k}")
        h.run(until=0.5)
        n2 = h.members["n2"]
        token = h.net.add_drop_filter(
            lambda src, dst, payload: dst.node == "n2"
            and isinstance(getattr(payload, "payload", payload), NewView)
        )
        verdicts = []
        rejoin = n2.recovery.rejoin_after_exclusion

        def spy():
            before = n2.stats["rejoins"]
            rejoin()
            verdicts.append(n2.stats["rejoins"] - before)
            h.net.remove_drop_filter(token)  # the cable is back

        n2.recovery.rejoin_after_exclusion = spy
        joiner = h.add_node("n3")
        joiner.join([h.addr("n0")])
        h.run(until=1.0)
        assert h.members["n0"].view.size == 4
        assert n2.view.view_id == 1 and n2.state == "normal"
        h.members["n1"].multicast("during-agreed")
        h.members["n1"].multicast("during-safe", service=SAFE)
        n2.multicast("from-the-straggler")
        h.run(until=6.0)
        # The one rejoin happened inside the exclusion verdict.
        assert verdicts == [1]
        assert n2.stats["rejoins"] == 1
        views = {str(member.view) for member in h.members.values()}
        assert len(views) == 1 and n2.view.size == 4
        h.members["n1"].multicast("after")
        h.run(until=8.0)
        ids = h.delivered_ids("n2")
        assert len(ids) == len(set(ids)) == 6
        assert ids == h.delivered_ids("n0") == h.delivered_ids("n1")
        assert h.delivered_ids("n3") == ids[-len(h.delivered_ids("n3")):]
        assert_sanitizer_clean(h.kernel)
