"""JOSHUA wire messages: client commands and launch-mutex traffic.

The ordered :class:`Command`/:class:`XferMarker`, the state-transfer frames
and the commit-position stamp are the replication engine's records
(:mod:`repro.aa.wire`); they are re-exported here because they are part of
what a JOSHUA head puts on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aa.wire import Command, SeqStampedResp, StateXferResp, XferMarker
from repro.net.codec import register_wire_types
from repro.pbs.job import JobRow, JobSpec

__all__ = [
    "JOSHUA_PORT",
    "JSubReq", "JDelReq", "JStatReq", "JStatResp", "SeqStampedResp",
    "JMutexReq", "JMutexResp", "JStartedReq", "JDoneReq",
    "StateXferResp",
    "Command", "Claim", "Started", "Done", "XferMarker",
]

#: Every head's joshua daemon: the client commands and the moms' launch-mutex
#: and Started/Done records all arrive here.
JOSHUA_PORT = 4412


# -- client -> joshua server ---------------------------------------------------


@dataclass(frozen=True)
class JSubReq:
    """``jsub``: replicated job submission.

    ``track_seq`` asks the head to stamp the commit sequence of this write
    into the reply (:class:`SeqStampedResp`) so the client can later issue
    read-your-writes ``jstat`` requests against it.
    """

    uuid: str
    spec: JobSpec
    track_seq: bool = False


@dataclass(frozen=True)
class JDelReq:
    """``jdel``: replicated job deletion."""

    uuid: str
    job_id: str
    track_seq: bool = False


@dataclass(frozen=True)
class JStatReq:
    """``jstat``: status query.

    With ``consistency="ordered"`` (the legacy default) the query rides the
    totally ordered stream exactly like a write, so every user sees a queue
    consistent with the command order. ``"ryw"`` answers from the receiving
    head's local replica without entering the ordered stream; ``min_seq``
    carries the client's read-your-writes floors as sorted
    ``(shard, applied_seq)`` pairs.
    """

    uuid: str
    job_id: str | None = None
    consistency: str = "ordered"
    min_seq: tuple = ()


@dataclass(frozen=True)
class JStatResp:
    """A local-replica answer to a read-path ``jstat``.

    ``as_of_seq`` is the answering replica's applied position per shard
    (sorted ``(shard, applied_seq)`` pairs, every gated shard) — the
    staleness bound the client/invariants can check against their floors.
    Ordered-path queries keep answering with a plain PBS ``StatResp``; the
    response *type* is how a client distinguishes a local read from an
    ordered fallback.
    """

    rows: tuple[JobRow, ...]
    as_of_seq: tuple = ()
    node: str = ""


# -- mom prologue/epilogue -> joshua server ----------------------------------------


@dataclass(frozen=True)
class JMutexReq:
    """``jmutex``: may this head's start attempt actually launch the job?"""

    job_id: str
    head: str  # head-node name of the attempting server


@dataclass(frozen=True)
class JMutexResp:
    decision: str  # "run" | "emulate"
    winner: str | None = None


@dataclass(frozen=True)
class JStartedReq:
    """The winning attempt really did start the job on the mom."""

    job_id: str


@dataclass(frozen=True)
class JDoneReq:
    """``jdone``: the job finished; release the launch mutex."""

    job_id: str


# -- group multicast payloads --------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """SAFE-delivered launch-mutex claim; first claim per job wins."""

    job_id: str
    head: str


@dataclass(frozen=True)
class Started:
    job_id: str


@dataclass(frozen=True)
class Done:
    job_id: str


register_wire_types(
    JSubReq, JDelReq, JStatReq, JStatResp,
    JMutexReq, JMutexResp, JStartedReq, JDoneReq,
    Claim, Started, Done,
)
