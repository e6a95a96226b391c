"""The client-history checker (:mod:`repro.faults.history`).

What JOSHUA's clients were told is judged against one TORQUE server. These
tests pin the checker from four sides: its sequential spec answers what a
plain PBS server answers; it catches the breakage it exists for (a heal's
renumbering when the exemption is taken away, a reply cache a joiner keeps
from before its resync); it exempts the one stated non-guarantee without
passing it; and it is an observer, so a wire trace does not move when it is
attached. The two open group defects the chaos suite's own scenarios meet
are pinned here too, as strict expected failures.
"""

import json
from pathlib import Path

import pytest

from repro.aa.engine import ReplicationEngine
from repro.analysis import wiretrace
from repro.cluster import Cluster
from repro.faults import CHAOS_GROUP, FaultInjector, FaultSchedule, InvariantSuite, run_chaos
from repro.faults import runner
from repro.faults.history import _Answer, _answer, _Event, _event, _linearizable, _Op
from repro.gcs.lifecycle import FLUSHING
from repro.joshua import build_joshua_stack
from repro.joshua.wire import JDelReq, JStatReq, JSubReq
from repro.pbs import stack as pbs_stack
from repro.pbs.stack import build_pbs_stack
from repro.pbs.wire import DeleteReq, StatReq, SubmitReq
from repro.rpc import rpc_state
from repro.util.errors import GroupCommError, PBSError

from tests.integration.conftest import drive, settle
from tests.integration.test_joshua_partitions import make_partitioned_stack

PINNED = json.loads(
    (Path(__file__).parents[1] / "data" / "wire_baseline.json").read_text()
)


class TestSpecAnswersAsPlainPBS:
    """The spec's answers are plain TORQUE's: run the commands against a
    single ``build_pbs_stack`` server, read each reply as the JOSHUA
    command's answer, and the spec must accept every one of them — and
    refuse the answers the server did not give. The server runs under
    JOSHUA's server name, so the ids match."""

    AS_JOSHUA = {SubmitReq: "jsub", StatReq: "jstat", DeleteReq: "jdel"}

    def plain_history(self, monkeypatch):
        cluster = Cluster(head_count=1, compute_count=2, login_node=True, seed=11)
        monkeypatch.setattr(pbs_stack, "SERVER_NAME", "joshua")
        plain = build_pbs_stack(cluster)
        kernel = cluster.kernel
        ops, obits, invoked = [], [], {}

        def on_request(node, server, request_id, payload, attempt):
            invoked.setdefault(request_id, kernel.now)

        def on_response(node, server, request_id, payload, response):
            kind = self.AS_JOSHUA.get(type(payload))
            if kind is None or node != "login":
                return
            uuid = f"{kind}-{request_id}"
            request = (
                JSubReq(uuid, payload.spec) if kind == "jsub"
                else JStatReq(uuid, payload.job_id) if kind == "jstat"
                else JDelReq(uuid, payload.job_id)
            )
            op = _Op(kind, request, invoked[request_id])
            answer = _answer(kernel.now, "head0", response, ((), 0))
            ops.append((uuid, op, answer))

        state = rpc_state(cluster.network)
        state.on_request.append(on_request)
        state.on_response.append(on_response)
        for mom in plain.moms:
            mom.on_job_done = lambda obit: obits.append((obit.job_id, kernel.now))
        client = plain.client(node="login")

        def run(command):
            try:
                return cluster.run(until=kernel.spawn(command))
            except PBSError as exc:
                return exc.kind

        brief = run(client.qsub(name="brief", walltime=1.0))
        live = run(client.qsub(name="live", walltime=600.0))
        assert run(client.qstat(live))[0].name == "live"
        cluster.run(until=10.0)
        assert run(client.qstat(brief))[0].state == "C"
        assert run(client.qdel(live)) == live
        assert run(client.qdel(brief)) == "bad-state"
        assert run(client.qdel("99.joshua")) == "unknown-job"
        keys = {}
        for uuid, op, answer in ops:
            job_id, event = _event(op, answer)
            keys.setdefault(job_id, []).append(event)
        for job_id, at in obits:
            keys[job_id].append(_Event(at, float("inf"), "obit", None, "obit"))
        return keys, live, brief

    def test_every_plain_answer_is_one_the_spec_gives(self, monkeypatch):
        keys, live, brief = self.plain_history(monkeypatch)
        assert sorted(keys) == sorted([live, brief, "99.joshua"])
        for job_id, events in keys.items():
            assert _linearizable(events), (job_id, [e.text for e in events])

    @pytest.mark.parametrize("job, effect, arg", [
        ("live", "unknown", None),          # a live job's stat: "unknown"
        ("live", "refuse", "bad-state"),    # a live job's jdel refused
        ("brief", "delete", None),          # a finished job's jdel: ok
        ("unknown", "delete", None),        # an unknown id's jdel: ok
    ])
    def test_an_answer_the_server_did_not_give_is_refused(
            self, monkeypatch, job, effect, arg):
        keys, live, brief = self.plain_history(monkeypatch)
        job_id = {"live": live, "brief": brief, "unknown": "99.joshua"}[job]
        kind = "jdel" if effect in ("refuse", "delete") else "jstat"
        events = [e for e in keys[job_id] if e.effect != "obit"]
        [told] = [e for e in events if e.text.startswith(kind)]
        forged = _Event(told.invoke, told.reply, effect, arg, "forged")
        assert not _linearizable(
            [forged if e is told else e for e in events]
        )


    @pytest.mark.parametrize("kind", ["pbs-error", "bad-request"])
    def test_an_ordered_stat_failure_says_nothing_of_the_job(self, kind):
        """Only ``unknown-job`` is a by-id stat's answer about the job; a
        relayed failure is no event, so it cannot fail the search."""
        op = _Op("jstat", JStatReq("jstat-1", "1.joshua"), 1.0)
        answer = _Answer(2.0, "head0", ("error", kind), None, False, ((), 0))
        assert _event(op, answer) is None


def split_and_heal(stack, cluster):
    """Cut head2 off, let each side acknowledge one jsub, then heal: the
    minority's ``1.joshua`` comes back as ``2.joshua`` (PROTOCOLS.md §4.1).
    Returns the minority's command uuid."""
    settle(stack, 1.0)
    cluster.network.partitions.cut_link("head2", "head0")
    cluster.network.partitions.cut_link("head2", "head1")
    settle(stack, 4.0)
    minority = stack.client(node="login", prefer="head2")
    majority = stack.client(node="login", prefer="head0")
    assert drive(stack, minority.jsub(name="minority", walltime=600)) == "1.joshua"
    assert drive(stack, majority.jsub(name="majority", walltime=600)) == "1.joshua"
    cluster.network.partitions.restore_link("head2", "head0")
    cluster.network.partitions.restore_link("head2", "head1")
    settle(stack, 15.0)
    return "jsub-login-1"


def retry_everywhere(stack, suite, uuid):
    """Re-send *uuid*'s own request to every head: each answers from its
    reply cache."""
    request = suite.history.ops[uuid].request
    for head in stack.head_names:
        client = stack.client(node="login", prefer=head)
        drive(stack, client._call(request))


class TestHealRenumbering:
    def test_the_heal_is_exempted_not_passed(self):
        cluster, stack = make_partitioned_stack()
        suite = InvariantSuite(stack).attach()
        uuid = split_and_heal(stack, cluster)
        retry_everywhere(stack, suite, uuid)
        assert suite.final_check() == []
        exempted = [str(v) for v in suite.exempted]
        assert exempted and all(v.invariant == "linearizable" for v in suite.exempted)
        assert any(uuid in v and "1.joshua" in v and "2.joshua" in v
                   for v in exempted), exempted

    def test_without_the_exemption_the_heal_is_a_finding(self, monkeypatch):
        monkeypatch.setattr(_Answer, "demoted", lambda self: False)
        cluster, stack = make_partitioned_stack()
        suite = InvariantSuite(stack).attach()
        split_and_heal(stack, cluster)
        findings = [v.detail for v in suite.final_check()
                    if v.invariant == "linearizable"]
        assert any(d.startswith("1.joshua:") and "'minority'" in d
                   and "'majority'" in d for d in findings), findings

    def test_a_joiner_that_keeps_its_own_reply_cache_is_caught(self, monkeypatch):
        """The reply-cache bug fixed before: a merge-demoted head that keeps
        its own ``results`` answers a retry of the minority's uuid with the
        id the heal took away, where every other head answers the new one."""
        original = ReplicationEngine._receive_state

        def keeping_own_results(self, marker):
            own = dict(self.results)
            yield from original(self, marker)
            self.results.update(own)

        monkeypatch.setattr(ReplicationEngine, "_receive_state", keeping_own_results)
        cluster, stack = make_partitioned_stack()
        suite = InvariantSuite(stack).attach()
        uuid = split_and_heal(stack, cluster)
        retry_everywhere(stack, suite, uuid)
        findings = [v.detail for v in suite.final_check()
                    if v.invariant == "linearizable"]
        assert any(d.startswith(f"{uuid} was answered") for d in findings), findings


class TestPassive:
    @pytest.mark.parametrize("scenario", sorted(wiretrace.SCENARIOS))
    def test_attaching_the_suite_moves_no_wire_byte(self, scenario):
        """Rule R5: an observer changes nothing it observes. The suite's
        taps, the client history's RPC hooks among them, leave each wire
        scenario's digest at its pinned value."""
        stack = wiretrace.make_stack(1)
        lines = wiretrace.spy_network(stack)
        suite = InvariantSuite(stack).attach()
        wiretrace.SCENARIOS[scenario](stack)
        assert wiretrace.trace_record(stack, lines) == PINNED[scenario]
        assert suite.history.ops  # it did record the scenario's commands


class TestOpenGroupDefects:
    """Two group-layer defects the chaos scenarios reach, pinned until they
    are fixed (PROTOCOLS.md §2.7)."""

    @pytest.mark.xfail(strict=True, reason=(
        "flush liveness: two heads that suspect only each other wait for "
        "the lowest unsuspected member to flush, which sees no trigger, so "
        "both stay FLUSHING"))
    def test_a_cut_between_two_heads_ends_their_flush(self):
        cluster = Cluster(head_count=3, compute_count=1, login_node=True, seed=0)
        stack = build_joshua_stack(cluster, group_config=CHAOS_GROUP)
        cluster.run(until=2.0)
        FaultInjector(cluster).apply(FaultSchedule().cut(3.0, "head1", "head2"))
        cluster.run(until=40.0)
        states = {h: stack.joshua(h).group.state for h in stack.head_names}
        assert FLUSHING not in states.values(), states

    @pytest.mark.xfail(strict=True, raises=GroupCommError, reason=(
        "conflicting order: two members assign seq 1 of one view to "
        "different messages (DeliveryQueue.add_assignments raises)"))
    def test_one_view_never_orders_two_messages_at_one_seq(self, monkeypatch):
        """The schedule the third run of ``soak(seed=1, runs=20,
        intensity=6, heads=4)`` drew before the random streams moved to the
        standard library, replayed with the submissions alone: no follow-up
        read or delete is sent (they move the timing that reaches the
        defect)."""
        monkeypatch.setattr(runner, "FOLLOW_UP_S", float("inf"))
        schedule = (
            FaultSchedule()
            .cut(3.58, "head1", "head2").restore(4.94, "head1", "head2")
            .loss_burst(5.82, 0.11, 1.87)
            .slow_node(9.18, "head1", 0.0015, 1.63)
            .cut(11.27, "head0", "head2").restore(13.16, "head0", "head2")
            .jitter_burst(14.4, 0.0084, 1.32)
            .jitter_burst(17.15, 0.0096, 1.14)
        )
        report = run_chaos(schedule, seed=1000005, ordering="sequencer",
                           intensity=6, heads=4)
        assert report.ok
