"""What JOSHUA's clients were told, judged against one TORQUE server.

The paper's promise is that JOSHUA behaves like one TORQUE server that does
not fail. :class:`History` checks exactly that, from the client's side of
the wire only. It records every ``jsub`` / ``jdel`` / ``jstat`` passively,
through the RPC client hooks (``rpc_state(network).on_request`` /
``on_response``), which see every conversation, the timed-out ones
included. Per command uuid it keeps the request, the sim-time of the first
request frame (the invoke) and every final answer: a reply or an error
kind. ``joining`` is no answer (the client retries elsewhere), so an
operation no head answered is *indeterminate*: it may take effect at any
point after its invoke, or never.

At :meth:`History.judge` the history is cut **per job id** and each key is
searched for an order that respects real time (Wing & Gong 1993), against
the sequential spec of one server, where a job goes absent → live → done:

* ``jsub`` creates the job, under the name it was submitted with;
* ``jdel`` of a live job ends it; otherwise it answers ``bad-state`` (the
  job is done) or ``unknown-job``, the kinds :mod:`repro.pbs.server` emits.
  Any other error (``pbs-error`` when the mom never acknowledged the kill,
  though the server already marked the job exiting) says nothing about the
  effect, so that ``jdel`` is indeterminate;
* a by-id ordered ``jstat`` returns the job's row: its id and its name, and
  ``C`` only once the job is done. Once it is done it may instead answer
  ``unknown-job``: a head that joined after the job finished never heard
  of it (PROTOCOLS.md §4.1), and "job id not known ⇒ completed" is how
  TORQUE front-ends read that. Any other error says nothing of the job;
* a mom's obit ends the job, at any point after the mom reported it.

One end-of-run read of every active head's table is judged by the same
model, so an acknowledged live job missing from any head, restarted or
not, is a finding. Rules and the names their findings carry:

* ``linearizable`` — a job id's operations admit no such order, or one
  command uuid was given two different answers;
* ``read-your-writes`` — a local ``ryw`` read misses a job whose tracked
  ``jsub`` was stamped at or below the floor the read presented (a
  position every replica that reached the floor has applied), and that
  may not have finished by then;
* ``monotonic-reads`` — a session's local read at a head lacks, or
  renames, a job its previous read at that head listed (the session is
  named by :meth:`History.observe_read`);
* ``tracked-write-stamped`` — a ``track_seq`` write was acknowledged
  without a :class:`~repro.aa.wire.SeqStampedResp`.

The one exemption is PROTOCOLS.md §4.1's heal renumbering: a head that a
partition heal later demotes (its members' ``rejoins`` moved since it
answered, with no crash between) may have acknowledged what the survivors
then order under another id. A finding that holds only through such an
answer is returned as exempted, never as a pass.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.aa.wire import SeqStampedResp
from repro.joshua.wire import JDelReq, JStatReq, JStatResp, JSubReq
from repro.pbs.wire import StatResp
from repro.rpc import TimeoutRecord, rpc_state
from repro.rpc.wire import ErrorResp

if TYPE_CHECKING:  # pragma: no cover
    from repro.joshua.deploy import JoshuaStack

__all__ = ["History"]

LINEARIZABLE = "linearizable"
READ_YOUR_WRITES = "read-your-writes"
MONOTONIC_READS = "monotonic-reads"
TRACKED_WRITE_STAMPED = "tracked-write-stamped"

_KINDS = {JSubReq: "jsub", JDelReq: "jdel", JStatReq: "jstat"}
#: What a ``jdel`` of a job that is not live may answer.
_REFUSALS = ("bad-state", "unknown-job")
_NEVER = float("inf")


@dataclass
class _Answer:
    """One final answer to a command, reduced to what is judged."""

    time: float
    head: str
    #: ``("ok", job_id)``, ``("error", kind)`` or ``("rows", {job_id:
    #: (name, state)})``.
    told: tuple
    #: ``(shard, seq)`` of a :class:`SeqStampedResp`, else ``None``.
    stamp: tuple | None
    #: Answered from the head's local replica (a :class:`JStatResp`).
    local: bool
    #: The answering head's members' ``stats`` and their rejoins then.
    era: tuple

    @property
    def value(self) -> tuple:
        """:attr:`told`, hashable: what two answers are compared by."""
        what, detail = self.told
        return (what, tuple(sorted(detail.items())) if what == "rows" else detail)

    def demoted(self) -> bool:
        """Whether a heal demoted the answering head since it answered."""
        stats, rejoins = self.era
        return sum(s["rejoins"] for s in stats) > rejoins


def _answer(time: float, head: str, response, era: tuple) -> _Answer:
    stamp = None
    if isinstance(response, SeqStampedResp):
        stamp = (response.shard, response.seq)
        response = response.result
    if isinstance(response, ErrorResp):
        told = ("error", response.kind)
    elif isinstance(response, (StatResp, JStatResp)):
        told = ("rows", {r.job_id: (r.name, r.state) for r in response.rows})
    else:
        told = ("ok", getattr(response, "job_id", None))
    return _Answer(time, head, told, stamp, isinstance(response, JStatResp), era)


@dataclass
class _Op:
    kind: str
    request: object
    invoke: float
    answers: list[_Answer] = field(default_factory=list)
    #: The client id :meth:`History.observe_read` named, for session rules.
    session: str | None = None


@dataclass(frozen=True)
class _Event:
    """One operation on one job id, as the search sees it."""

    invoke: float
    reply: float  # _NEVER: optional, may take effect or not
    #: create | delete | delete? | refuse | read | unknown | refuse-read | obit
    effect: str
    arg: object
    text: str


class History:
    """Client operations of one stack, and the one-server judgement."""

    def __init__(self, stack: "JoshuaStack"):
        self.stack = stack
        self.kernel = stack.cluster.kernel
        #: command uuid -> the operation, in invoke order.
        self.ops: dict[str, _Op] = {}
        #: job id -> sim-times a tapped mom reported it finished.
        self.obits: dict[str, list[float]] = {}
        #: id of a local read's response -> (a weak reference to it, its op).
        self._local_reads: dict[int, tuple] = {}

    def attach(self) -> None:
        state = rpc_state(self.stack.cluster.network)
        state.on_request.append(self._on_request)
        state.on_response.append(self._on_response)

    # -- recording -----------------------------------------------------------

    def _on_request(self, node, server, request_id, payload, attempt) -> None:
        kind = _KINDS.get(type(payload))
        if kind is not None and payload.uuid not in self.ops:
            self.ops[payload.uuid] = _Op(kind, payload, self.kernel.now)

    def _on_response(self, node, server, request_id, payload, response) -> None:
        op = self.ops.get(payload.uuid) if type(payload) in _KINDS else None
        if op is None or isinstance(response, TimeoutRecord) or (
                isinstance(response, ErrorResp) and response.kind == "joining"):
            return
        op.answers.append(
            _answer(self.kernel.now, server.node, response, self._era(server.node))
        )
        if isinstance(response, JStatResp):
            self._local_reads[id(response)] = (weakref.ref(response), op)

    def _era(self, head: str) -> tuple:
        daemon = self.stack.cluster.node(head).daemons.get("joshua")
        stats = [] if daemon is None else [m.stats for m in daemon.groups]
        return stats, sum(s["rejoins"] for s in stats)

    def obit(self, job_id: str) -> None:
        """A tapped mom reported *job_id* finished, now."""
        self.obits.setdefault(job_id, []).append(self.kernel.now)

    def observe_read(self, client: str, response) -> None:
        """Name the session of the local read that returned *response*."""
        ref, op = self._local_reads.get(id(response), (lambda: None, None))
        if ref() is response:
            op.session = client

    # -- judgement -----------------------------------------------------------

    def judge(self, tables: dict[str, dict]) -> tuple[list, list]:
        """Judge the whole history plus one read of each active head's
        *tables* (``head -> {job_id: (name, state)}``) taken now.
        Returns ``(findings, exempted)``, each a list of ``(rule, detail)``."""
        findings: list[tuple[str, str]] = []
        exempted: list[tuple[str, str]] = []
        answers = {uuid: self._standing(uuid, op, findings, exempted)
                   for uuid, op in self.ops.items()}
        keys = self._keys(answers, relaxed=False)
        relaxed = self._keys(answers, relaxed=True)
        for job_id in sorted(keys):
            ends = self._job_events(job_id, tables)
            events = keys[job_id] + ends
            if _linearizable(events):
                continue
            # With a demoted head's answers read as no answers, an id no
            # acknowledged jsub names any more has nothing left to judge.
            retry = relaxed.get(job_id)
            verdict = (exempted if retry is None or _linearizable(retry + ends)
                       else findings)
            verdict.append((LINEARIZABLE, f"{job_id}: " + "; ".join(
                e.text for e in sorted(events, key=lambda e: e.invoke))))
        self._judge_sessions(answers, findings, exempted)
        return findings, exempted

    def _standing(self, uuid, op, findings, exempted) -> _Answer | None:
        """The answer an operation stands for: one value for one uuid."""
        if not op.answers:
            return None
        if getattr(op.request, "track_seq", False):
            for a in op.answers:
                if a.stamp is None and a.told[0] != "error":
                    findings.append((TRACKED_WRITE_STAMPED, (
                        f"{uuid} was acknowledged by {a.head} at "
                        f"{a.time:.3f} without a stamp: {a.told[1]}")))
        kept = [a for a in op.answers if not a.demoted()] or op.answers
        if len({a.value for a in op.answers}) > 1:
            verdict = exempted if len({a.value for a in kept}) == 1 else findings
            verdict.append((LINEARIZABLE, f"{uuid} was answered " + ", ".join(
                f"{_said(a)} by {a.head} at {a.time:.3f}" for a in op.answers)))
        return kept[0]

    def _keys(self, answers, *, relaxed: bool) -> dict[str, list[_Event]]:
        """The client operations per job id; only ids a ``jsub`` was
        acknowledged are judged. *relaxed* reads every answer of a head a
        heal later demoted as no answer."""
        keys: dict[str, list[_Event]] = {}
        rest: list[tuple[str, _Event]] = []
        for uuid, op in self.ops.items():
            answer = answers[uuid]
            if answer is not None and relaxed and answer.demoted():
                answer = None
            event = _event(op, answer)
            if event is None:
                continue
            job_id, event = event
            if event.effect == "create":
                keys.setdefault(job_id, []).append(event)
            else:
                rest.append((job_id, event))
        for job_id, event in rest:
            if job_id in keys:
                keys[job_id].append(event)
        return keys

    def _job_events(self, job_id: str, tables) -> list[_Event]:
        """The moms' obits of *job_id* and the end-of-run reads of it."""
        events = [_Event(t, _NEVER, "obit", None, f"obit at {t:.3f}")
                  for t in self.obits.get(job_id, ())]
        now = self.kernel.now
        for head, table in sorted(tables.items()):
            row = table.get(job_id)
            if row is None:
                events.append(_Event(now, now, "unknown", None,
                                     f"{head}'s table at the end: no such job"))
            else:
                events.append(_Event(now, now, "read", row, (
                    f"{head}'s table at the end: {row[0]!r} {row[1]}")))
        return events

    def _ends(self, answers) -> dict[str, float]:
        """job id -> the earliest sim-time it may have finished by: a mom
        reported it, or a ``jdel`` of it that was not refused was invoked."""
        ends = {job_id: min(times) for job_id, times in self.obits.items()}
        for uuid, op in self.ops.items():
            answer = answers[uuid]
            if op.kind == "jdel" and (
                    answer is None or answer.told[1] not in _REFUSALS):
                job_id = op.request.job_id
                ends[job_id] = min(ends.get(job_id, _NEVER), op.invoke)
        return ends

    def _judge_sessions(self, answers, findings, exempted) -> None:
        """PROTOCOLS.md §12's session guarantees over the local reads."""
        ends = self._ends(answers)
        stamped = []  # (shard, seq, job_id, name, demoted) of tracked jsubs
        for uuid, op in self.ops.items():
            answer = answers[uuid]
            if op.kind == "jsub" and answer is not None and answer.stamp:
                stamped.append((*answer.stamp, answer.told[1],
                                op.request.spec.name, answer.demoted()))
        last: dict[tuple[str, str], _Answer] = {}
        reads = [(answers[uuid], op) for uuid, op in self.ops.items()
                 if op.kind == "jstat" and op.request.consistency == "ryw"
                 and answers[uuid] is not None]
        for answer, op in sorted(reads, key=lambda pair: pair[0].time):
            target = op.request.job_id
            what, listed = answer.told
            # A local answer, or a by-id one (a fallback is ordered on the
            # job's own shard); an id-less fallback is ordered on one shard
            # only (PROTOCOLS.md §12.3).
            if not (answer.local or target is not None) or (
                    what != "rows" and answer.told != ("error", "unknown-job")):
                continue
            if what != "rows":
                listed = {}
            floors = dict(op.request.min_seq)
            for shard, seq, job_id, name, demoted in stamped:
                if (seq > floors.get(shard, 0) or job_id in listed
                        or target not in (None, job_id)
                        or ends.get(job_id, _NEVER) <= answer.time):
                    continue
                verdict = exempted if demoted or answer.demoted() else findings
                verdict.append((READ_YOUR_WRITES, (
                    f"{op.request.uuid} presented floor {floors.get(shard, 0)} on "
                    f"shard {shard}, but {answer.head}'s answer at "
                    f"{answer.time:.3f} lacks {job_id} ({name!r}, stamped {seq})")))
            if op.session is None or not answer.local:
                continue
            before = last.get((op.session, answer.head))
            last[op.session, answer.head] = answer
            if before is None:
                continue
            for job_id, (name, _state) in sorted(before.told[1].items()):
                now = listed.get(job_id)
                if (now is not None and now[0] == name) or (
                        now is None and ends.get(job_id, _NEVER) <= answer.time):
                    continue
                verdict = (exempted if before.demoted() or answer.demoted()
                           else findings)
                verdict.append((MONOTONIC_READS, (
                    f"{op.session} read {job_id} as {name!r} from {answer.head} "
                    f"at {before.time:.3f}, then "
                    f"{now[0] if now else 'nothing'!r} at {answer.time:.3f}")))


def _said(answer: _Answer) -> str:
    what, detail = answer.told
    return f"{len(detail)} row(s)" if what == "rows" else str(detail)


def _event(op: _Op, answer: _Answer | None):
    """``(job_id, event)`` an operation contributes to, or ``None``."""
    request = op.request
    reply = _NEVER if answer is None else answer.time
    by = "" if answer is None else f" by {answer.head}"
    span = f"[{op.invoke:.3f}, {reply:.3f}]{by}"
    what, detail = (None, None) if answer is None else answer.told
    if op.kind == "jsub":
        if what != "ok":
            return None  # may have created some job: no key to judge it under
        return detail, _Event(
            op.invoke, reply, "create", request.spec.name,
            f"jsub {request.spec.name!r} {span} -> {detail}")
    job_id = request.job_id
    if op.kind == "jdel":
        if what == "error" and detail in _REFUSALS:
            return job_id, _Event(op.invoke, reply, "refuse", detail,
                                  f"jdel {span} -> {detail}")
        if what != "ok":
            # Unanswered, or a failure that does not say whether the job
            # was ended (a kill the mom never acknowledged: pbs-error).
            told = "unanswered" if answer is None else f"-> {detail}"
            return job_id, _Event(op.invoke, _NEVER, "delete?", None,
                                  f"jdel {span} {told}")
        return job_id, _Event(op.invoke, reply, "delete", None, f"jdel {span} -> ok")
    if job_id is None or answer is None or answer.local:
        return None  # id-less, unanswered, or local: session rules only
    if what == "error":
        if request.consistency != "ordered" or detail != "unknown-job":
            # A local or an ordered refusal (no telling which), or a failure
            # that says nothing of the job (a relayed pbs-error).
            return None
        return job_id, _Event(op.invoke, reply, "unknown", None,
                              f"jstat {span} -> unknown-job")
    row = detail.get(job_id)
    if len(detail) != 1 or row is None:
        return job_id, _Event(op.invoke, reply, "refuse-read", detail,
                              f"jstat {span} -> rows {sorted(detail)}")
    return job_id, _Event(op.invoke, reply, "read", row,
                          f"jstat {span} -> {row[0]!r} {row[1]}")


def _step(state, event: _Event) -> list:
    """The states *event* may leave from *state* (``None``: absent, else
    ``(name, done)``); an empty list where the spec forbids it."""
    effect = event.effect
    live = state is not None and not state[1]
    if effect == "create":
        return [(event.arg, False)] if state is None else []
    if effect == "delete":
        return [(state[0], True)] if live else []
    if effect in ("delete?", "obit"):
        return [(state[0], True)] if live else [state]
    if effect == "refuse":
        if state is None:
            return [state] if event.arg == "unknown-job" else []
        return [state] if state[1] else []
    if effect == "unknown":
        return [state] if state is None or state[1] else []
    if effect == "read":
        name, letter = event.arg
        ok = state is not None and state[0] == name and (letter != "C" or state[1])
        return [state] if ok else []
    return []  # refuse-read: an answer the spec never gives


def _linearizable(events: list[_Event]) -> bool:
    """Whether some order of *events* that respects real time is legal
    from an absent job (Wing & Gong's search, with the visited
    ``(done set, state)`` pairs pruned; optional events may be skipped)."""
    required = 0
    for i, event in enumerate(events):
        if event.reply != _NEVER:
            required |= 1 << i
    seen: set = set()

    def search(done: int, state) -> bool:
        if done & required == required:
            return True
        if (done, state) in seen:
            return False
        seen.add((done, state))
        pending = [i for i in range(len(events)) if not done >> i & 1]
        horizon = min(events[i].reply for i in pending)
        for i in pending:
            if events[i].invoke <= horizon:
                for after in _step(state, events[i]):
                    if search(done | 1 << i, after):
                        return True
        return False

    return search(0, None)
