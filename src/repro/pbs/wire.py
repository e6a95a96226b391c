"""PBS wire protocol: the request/response frame types.

All client↔server and server↔mom traffic rides in the typed
:class:`~repro.rpc.wire.Request` / :class:`~repro.rpc.wire.Reply`
envelope, carried by the shared :mod:`repro.rpc` substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.address import Address
from repro.net.codec import register_wire_types
from repro.pbs.job import JobSpec

__all__ = [
    "SubmitReq", "SubmitResp",
    "StatReq", "StatResp",
    "DeleteReq", "DeleteResp",
    "HoldReq", "ReleaseReq", "SignalReq", "RerunReq", "LoadStateReq", "PurgeReq",
    "CaptureReq", "CaptureResp",
    "AdminServers", "AdminPurge",
    "SimpleResp",
    "RunJobReq", "RunJobResp",
    "SchedPollReq", "SchedPollResp",
    "JobStartReq", "JobStartResp", "KillJobReq", "JobObit",
]


# -- user command requests ---------------------------------------------------


@dataclass(frozen=True)
class SubmitReq:
    spec: JobSpec
    #: Replay-mode state transfer forces the original job id so replicated
    #: servers stay id-compatible (the stand-in for the prototype's
    #: configuration-file surgery when cloning a TORQUE server).
    force_job_id: str | None = None


@dataclass(frozen=True)
class SubmitResp:
    job_id: str


@dataclass(frozen=True)
class StatReq:
    job_id: str | None = None  # None = all jobs


@dataclass(frozen=True)
class StatResp:
    rows: tuple


@dataclass(frozen=True)
class DeleteReq:
    job_id: str


@dataclass(frozen=True)
class DeleteResp:
    job_id: str


@dataclass(frozen=True)
class HoldReq:
    job_id: str


@dataclass(frozen=True)
class ReleaseReq:
    job_id: str


@dataclass(frozen=True)
class SignalReq:
    job_id: str
    signal: str = "SIGTERM"


@dataclass(frozen=True)
class RerunReq:
    """``qrerun``: force a RUNNING job back to QUEUED (PBS operator command;
    JOSHUA uses it to recover a job whose launch-mutex winner died before
    the launch happened)."""

    job_id: str


@dataclass(frozen=True)
class PurgeReq:
    """Admin wipe of job state (a rejoining replica discards its stale
    recovered queue before state transfer — the 'configuration file
    modification' half of the prototype's replica-cloning procedure).

    With ``stride == 0`` (default) everything is wiped and the id counter
    reset. A sharded replica unit resyncs only its own stripe of the job
    namespace: ``stride = <shard count>, lane = <shard id>`` purges exactly
    the jobs whose sequence number satisfies ``(seq - 1) % stride == lane``,
    leaving the other shards' jobs and the id counter untouched.
    """

    stride: int = 0
    lane: int = 0


@dataclass(frozen=True)
class LoadStateReq:
    """Admin bulk-load of job state (snapshot state transfer — the
    extension mode foreshadowed by the paper's 'unified and location
    independent state description' future work).

    ``merge=False`` (default) demands an empty server — the unsharded
    clone-a-replica semantics. ``merge=True`` adds/overwrites only the
    carried jobs and ratchets ``next_seq`` to the max, so one shard's
    snapshot can land without clobbering the other shards' stripes.
    """

    jobs: tuple
    next_seq: int
    merge: bool = False


@dataclass(frozen=True)
class CaptureReq:
    """HA layer -> its local server: the job table *and* the id counter, for
    a state-transfer capture. The counter cannot be inferred from the rows:
    a server that was itself cloned holds no record of the jobs that
    finished before, yet must never hand their ids out again."""


@dataclass(frozen=True)
class CaptureResp:
    #: qstat-style rows, submission order (as :class:`StatResp`).
    rows: tuple
    #: the sequence number the server's next self-assigned job id takes.
    next_seq: int


@dataclass(frozen=True)
class AdminServers:
    """HA layer -> mom: the authoritative head-server set after a
    membership change (obituaries and future start reports follow it)."""

    servers: tuple


@dataclass(frozen=True)
class AdminPurge:
    """Failover manager -> mom: abort every running job (the applications
    lost their parent server and restart: active/standby semantics)."""


@dataclass(frozen=True)
class SimpleResp:
    ok: bool = True
    detail: str = ""


# -- scheduler <-> server ------------------------------------------------------


@dataclass(frozen=True)
class SchedPollReq:
    pass


@dataclass(frozen=True)
class SchedPollResp:
    #: qstat-style rows, submission order.
    rows: tuple
    #: compute node name -> free (True) / busy.
    node_free: tuple


@dataclass(frozen=True)
class RunJobReq:
    job_id: str
    exec_nodes: tuple


@dataclass(frozen=True)
class RunJobResp:
    ok: bool
    detail: str = ""


# -- server <-> mom ------------------------------------------------------------


@dataclass(frozen=True)
class JobStartReq:
    job_id: str
    spec: JobSpec
    exec_nodes: tuple
    #: The requesting server's address — moms report to many servers; this
    #: identifies which server's start attempt this is (JOSHUA's jmutex
    #: decides which attempt actually executes).
    server: Address | None = None


@dataclass(frozen=True)
class JobStartResp:
    ok: bool
    #: "run" if this attempt launched the job, "emulate" if the prologue
    #: decided another server's attempt already had.
    mode: str = "run"
    detail: str = ""


@dataclass(frozen=True)
class KillJobReq:
    job_id: str


@dataclass(frozen=True)
class JobObit:
    """Mom -> every registered server (a request): the job finished."""

    job_id: str
    exit_status: int
    exec_nodes: tuple
    started_at: float
    finished_at: float


register_wire_types(
    SubmitReq, SubmitResp,
    StatReq, StatResp,
    DeleteReq, DeleteResp,
    HoldReq, ReleaseReq, SignalReq, RerunReq, LoadStateReq, PurgeReq,
    CaptureReq, CaptureResp,
    AdminServers, AdminPurge,
    SimpleResp,
    RunJobReq, RunJobResp,
    SchedPollReq, SchedPollResp,
    JobStartReq, JobStartResp, KillJobReq, JobObit,
)
