"""PBS job model: specifications, states, lifecycle records."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

from repro.net.codec import Fragment, register_wire_types
from repro.util.errors import PBSError

__all__ = ["JobState", "JobSpec", "Job", "JobRow"]


class JobState(enum.Enum):
    """PBS job states (the single-letter codes ``qstat`` prints)."""

    QUEUED = "Q"
    RUNNING = "R"
    EXITING = "E"
    COMPLETE = "C"
    HELD = "H"
    WAITING = "W"


#: Exit status PBS reports for a job killed by the server (SIGTERM + 256..).
KILLED_EXIT_STATUS = 271


@dataclass(frozen=True)
class JobSpec:
    """What the user submits (the interesting subset of ``qsub`` options).

    ``walltime`` doubles as the simulated execution duration — the "script"
    of a simulated job is simply how long it runs and what exit status it
    returns.
    """

    name: str = "STDIN"
    owner: str = "user"
    nodes: int = 1
    walltime: float = 60.0
    queue: str = "batch"
    exit_status: int = 0
    #: Declared priority; unused by the FIFO policy (Maui default in the
    #: paper) but kept for schedulers an extension might add.
    priority: int = 0

    def __post_init__(self):
        if self.nodes < 1:
            raise PBSError(f"job needs at least one node, got {self.nodes}")
        if self.walltime <= 0:
            raise PBSError(f"walltime must be positive, got {self.walltime}")


class JobRow(NamedTuple):
    """One ``qstat`` output row: positional columns, as TORQUE prints them,
    so a row on the wire carries its values and one record byte, not the
    column names."""

    job_id: str
    name: str
    owner: str
    #: The single-letter :class:`JobState` code.
    state: str
    queue: str
    nodes: int
    walltime: float
    exec_nodes: tuple[str, ...]
    exit_status: int | None
    comment: str


@dataclass(frozen=True)
class Job:
    """A job as tracked by a PBS server. Immutable; transitions produce a
    new record (making accidental shared mutation across 'the wire'
    impossible — important when several replicated servers track the same
    job)."""

    job_id: str
    spec: JobSpec
    state: JobState = JobState.QUEUED
    submit_time: float = 0.0
    start_time: float | None = None
    end_time: float | None = None
    exit_status: int | None = None
    exec_nodes: tuple[str, ...] = field(default=())
    comment: str = ""
    #: How many times the job has been (re)started; >1 after a recovery
    #: requeue, which is how "applications have to be restarted" shows up.
    run_count: int = 0

    _LEGAL = {
        JobState.QUEUED: {JobState.RUNNING, JobState.COMPLETE, JobState.HELD, JobState.WAITING},
        JobState.HELD: {JobState.QUEUED, JobState.COMPLETE},
        JobState.WAITING: {JobState.QUEUED, JobState.COMPLETE},
        JobState.RUNNING: {JobState.EXITING, JobState.COMPLETE, JobState.QUEUED},
        JobState.EXITING: {JobState.COMPLETE},
        JobState.COMPLETE: set(),
    }

    def transition(self, new_state: JobState, **updates) -> "Job":
        """Return a copy in *new_state*, validating the PBS state machine."""
        if new_state not in self._LEGAL[self.state]:
            raise PBSError(
                f"illegal transition {self.state.value} -> {new_state.value} for {self.job_id}"
            )
        return replace(self, state=new_state, **updates)

    @property
    def sequence(self) -> int:
        """Numeric part of the job id (``'42.torque'`` -> 42)."""
        return int(self.job_id.split(".", 1)[0])

    def stat_row(self) -> JobRow:
        """One ``qstat`` output row."""
        spec = self.spec
        return JobRow(
            self.job_id, spec.name, spec.owner, self.state.value, spec.queue,
            spec.nodes, spec.walltime, self.exec_nodes, self.exit_status,
            self.comment,
        )

    @cached_property
    def wire_row(self) -> Fragment:
        """:meth:`stat_row` pre-encoded — what the server puts in a qstat
        or scheduler-poll reply. Built on first use and kept with this
        record: a transition makes a new record, so a stale row cannot be
        sent. Derived state, not a field: equality, ``repr``, ``replace``
        and the codec's record encoding go by the declared fields."""
        return Fragment(self.stat_row())

    def __getstate__(self) -> dict:
        # Copies and pickles carry the fields only: without this the cached
        # row would ride into every Disk write's deep copy of the record.
        state = self.__dict__.copy()
        state.pop("wire_row", None)
        return state


# JobSpec rides inside every submit and every replayed state-transfer item,
# and a JobRow inside every qstat and scheduler-poll reply. No frame carries
# a Job, but the codec requires every exported record of a registering module
# to be registered; JobState members appear as Job fields.
register_wire_types(JobSpec, Job, JobRow, JobState)
