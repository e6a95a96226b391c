"""PBS wire protocol: the request/response frame types.

All client↔server and server↔mom traffic rides in the typed
:class:`~repro.rpc.wire.Request` / :class:`~repro.rpc.wire.Reply`
envelope, carried by the shared :mod:`repro.rpc` substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.address import Address
from repro.net.codec import register_wire_types
from repro.pbs.job import JobRow, JobSpec

__all__ = [
    "SubmitReq", "SubmitResp",
    "StatReq", "StatResp",
    "DeleteReq", "DeleteResp",
    "HoldReq", "ReleaseReq", "SignalReq", "RerunReq", "PurgeReq",
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
    #: JOSHUA forces every id — from the ordered stream on execution, the
    #: original one on state-transfer replay — so replicated servers stay
    #: id-compatible (the stand-in for the prototype's configuration-file
    #: surgery when cloning a TORQUE server).
    force_job_id: str | None = None


@dataclass(frozen=True)
class SubmitResp:
    job_id: str


@dataclass(frozen=True)
class StatReq:
    job_id: str | None = None  # None = all jobs


@dataclass(frozen=True)
class StatResp:
    rows: tuple[JobRow, ...]


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
    """Admin wipe of one stripe of the job namespace (a rejoining replica
    discards its stale recovered queue before state transfer — the
    'configuration file modification' half of the prototype's
    replica-cloning procedure).

    ``stride = <shard count>, lane = <shard id>`` purges exactly the jobs
    whose sequence number satisfies ``(seq - 1) % stride == lane``, leaving
    the other shards' jobs and the id counter untouched; ``(1, 0)`` is
    every job.
    """

    stride: int
    lane: int


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
    """Maui's poll: the ``(epoch, generation)`` of the last reply it
    applied. ``epoch = 0`` asks for the whole table (PROTOCOLS.md §3)."""

    epoch: int = 0
    since: int = 0


@dataclass(frozen=True)
class SchedPollResp:
    """The rows of the jobs changed after the request's ``since``, or every
    row when the request's epoch is not the server's (or is 0); ``epoch``
    and ``generation`` name what the rows are current to."""

    #: qstat rows, submission order.
    rows: tuple[JobRow, ...]
    #: compute node name -> free (True) / busy.
    node_free: tuple
    epoch: int = 0
    generation: int = 0


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
    HoldReq, ReleaseReq, SignalReq, RerunReq, PurgeReq,
    AdminServers, AdminPurge,
    SimpleResp,
    RunJobReq, RunJobResp,
    SchedPollReq, SchedPollResp,
    JobStartReq, JobStartResp, KillJobReq, JobObit,
)
