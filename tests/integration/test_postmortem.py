"""Acceptance: a planted invariant violation yields a usable postmortem.

The flight recorder's whole point is that when a chaos soak dies, the
bundle explains the seconds that led there. This test runs a real faulted
scenario (crash + restart, so failure-detector suspicions and view changes
actually happen, jobs actually flow), then plants a total-order violation
through the public feed of the live suite's group contract — a forged
second delivery of an existing ``(view, seq)`` slot under a different
message id, exactly what a replication bug would produce. The
automatically captured bundle must contain, causally merged:

* the offending command's spans (multicast / order / delivery of the
  message the forgery collides with),
* the surrounding wire frames, and
* the last failure-detector and view transitions from **every** head,

and it must survive the JSONL round trip and render through the
``repro postmortem`` CLI.
"""

from repro.gcs.messages import DeliveredMessage

from repro.cli import main
from repro.faults.invariants import InvariantSuite
from repro.obs import attach_collector, attach_recorder, attach_timeseries
from tests.integration.conftest import drive, make_stack, settle

HEADS = 3


def run_planted_violation():
    """Faulted scenario + forged conflicting delivery; returns
    (stack, suite, recorder, offending MessageId)."""
    stack = make_stack(heads=HEADS, computes=2, seed=23)
    network = stack.cluster.network
    attach_collector(network)
    # Generous rings: the interesting span history must survive the
    # steady-state heartbeat/poll chatter between fault and violation.
    recorder = attach_recorder(network)
    recorder.ring_limit = 4096
    attach_timeseries(network)
    stack.cluster.run(until=2.0)
    suite = InvariantSuite(stack).attach()
    # The last slot head1 delivered (a tap above the suite's own).
    member = stack.joshua("head1").group
    last = []
    inner = member.on_deliver

    def remember(msg):
        last[:] = [msg]
        inner(msg)

    member.on_deliver = remember

    client = stack.client(node="login")
    drive(stack, client.jsub(name="before-fault", walltime=1.5))
    # Real fault: head0 crashes (head1/head2 suspect it, cut a view),
    # then restarts and rejoins (another view).
    stack.cluster.node("head0").crash()
    settle(stack, 3.0)
    stack.cluster.node("head0").restart()
    settle(stack, 5.0)
    drive(stack, client.jsub(name="offending", walltime=1.5))
    settle(stack, 2.0)

    # The planted violation: replay the slot head1 delivered last under a
    # different message id, as if head2's replica diverged.
    [victim] = last
    victim_id = victim.msg_id
    forged = DeliveredMessage(
        msg_id=victim_id._replace(counter=victim_id.counter + 1000),
        sender=victim_id.sender,
        payload="forged-divergence",
        service="agreed",
        view_id=victim.view_id,
        seq=victim.seq,
    )
    assert suite.violations == []
    suite.contract.delivered(stack.joshua("head2").group, forged)
    assert [v.invariant for v in suite.violations] == ["total-order"]
    return stack, suite, recorder, victim_id


class TestPlantedViolationPostmortem:
    def test_bundle_holds_spans_frames_and_lifecycle_of_every_head(self):
        stack, suite, recorder, victim_id = run_planted_violation()

        [bundle] = recorder.bundles
        assert bundle["reason"] == "invariant:total-order"
        assert str(victim_id) in bundle["detail"]
        assert bundle["nodes"] == sorted(recorder.rings)
        records = bundle["records"]
        assert records == sorted(records, key=lambda r: r["time"])

        # The offending command's spans: its multicast, ordering and
        # delivery are all in the merged timeline.
        spans = [r for r in records if r["type"] == "span"]
        msg_id = str(victim_id)
        kinds_for_victim = {
            r["kind"] for r in spans
            if r.get("fields", {}).get("msg_id") == msg_id
        }
        assert {"gcs.mcast", "gcs.order", "gcs.deliver"} <= kinds_for_victim

        # The surrounding wire frames, with type/size/src/dst.
        frames = [r for r in records if r["type"] == "frame"]
        assert frames
        assert all(
            r["kind"] and r["size"] > 0 and r["src"] and r["dst"]
            for r in frames
        )

        # FD/view transitions from every head: head1/head2 suspected the
        # crashed head0 and installed shrink+rejoin views; head0's own ring
        # carries its rejoin view (and names the sequencer).
        for i in range(HEADS):
            node = f"head{i}"
            lifecycle = [
                r for r in spans
                if r["node"] == node and r["kind"] in ("gcs.fd", "gcs.view")
            ]
            assert lifecycle, f"no FD/view transitions from {node}"
        suspects = [
            r for r in spans
            if r["kind"] == "gcs.fd"
            and r["fields"].get("transition") == "suspect"
        ]
        assert {r["node"] for r in suspects} == {"head1", "head2"}
        views = [r for r in spans if r["kind"] == "gcs.view"]
        assert any(r["fields"].get("sequencer") for r in views)

    def test_bundle_renders_through_the_cli(self, tmp_path, capsys):
        from repro.obs.recorder import write_bundle

        _, _, recorder, victim_id = run_planted_violation()
        path = tmp_path / "postmortem.jsonl"
        write_bundle(recorder.bundles[0], path)

        assert main(["postmortem", str(path)]) == 0
        out = capsys.readouterr().out
        assert "POSTMORTEM [invariant:total-order]" in out
        assert str(victim_id) in out
        assert "FRAME" in out and "gcs.view" in out

        assert main(["postmortem", str(path), "--limit", "5"]) == 0
        limited = capsys.readouterr().out
        assert "last 5 shown" in limited

    def test_missing_bundle_is_a_usage_error(self, tmp_path, capsys):
        assert main(["postmortem", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().out
