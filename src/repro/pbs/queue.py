"""The server-side job queue.

A thin, well-tested container: insertion order is submission order, FIFO
selection respects it, and all mutation goes through explicit methods so
the server can persist on every change. Holding a job removes it from FIFO
eligibility without losing its position (PBS semantics: a released job is
eligible again at its original priority/position).

Every job also carries a **queue rank** (TORQUE's ``qrank``): a number
assigned once, when the job enters the queue — one more than the rank at
the tail. Iteration order is ascending rank by construction, so a server
that persists each job's rank beside the job can rebuild the queue in its
pre-crash order from records that were written one at a time.

``generation`` counts ``add`` and ``update`` calls, and each job keeps the
count of its last one, so ``to_wire(since)`` is what a scheduler holding
the table as of ``since`` is missing, removals aside. The stamps are kept
in generation order, so that answer costs what changed after ``since``,
not the queue's depth.
"""

from __future__ import annotations

from typing import Iterator

from repro.net.codec import PlainFragment
from repro.pbs.job import Job, JobState
from repro.util.errors import UnknownJobError

__all__ = ["JobQueue"]


class JobQueue:
    """Ordered collection of jobs keyed by job id."""

    def __init__(self):
        self._jobs: dict[str, Job] = {}  # insertion-ordered
        self._ranks: dict[str, int] = {}  # same keys, same order
        #: Same keys, in generation order: job id -> generation of its last
        #: change (re-stamping moves a job to the end).
        self._stamps: dict[str, int] = {}
        self.generation = 0

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._jobs

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs.values())

    def add(self, job: Job, rank: int | None = None) -> None:
        """Append *job*. *rank* restores a persisted queue rank (recovery
        adds jobs in ascending rank); by default the next fresh one."""
        if job.job_id in self._jobs:
            raise UnknownJobError(job.job_id)  # pragma: no cover - server bug guard
        tail = next(reversed(self._ranks.values()), -1)
        if rank is None:
            rank = tail + 1
        elif rank <= tail:
            raise ValueError(  # pragma: no cover - server bug guard
                f"rank {rank} of {job.job_id} is not past the queue tail"
            )
        self._jobs[job.job_id] = job
        self._ranks[job.job_id] = rank
        self._stamp(job.job_id)

    def _stamp(self, job_id: str) -> None:
        self.generation += 1
        stamps = self._stamps
        stamps.pop(job_id, None)
        stamps[job_id] = self.generation

    def rank(self, job_id: str) -> int:
        """The queue rank *job_id* was given when it was added."""
        try:
            return self._ranks[job_id]
        except KeyError:
            raise UnknownJobError(job_id) from None

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except (KeyError, TypeError):  # TypeError: an unhashable id off the wire
            raise UnknownJobError(job_id) from None

    def update(self, job: Job) -> None:
        if job.job_id not in self._jobs:
            raise UnknownJobError(job.job_id)
        self._jobs[job.job_id] = job
        self._stamp(job.job_id)

    def remove(self, job_id: str) -> Job:
        if job_id not in self._jobs:
            raise UnknownJobError(job_id)
        del self._ranks[job_id]
        del self._stamps[job_id]
        return self._jobs.pop(job_id)

    def in_state(self, *states: JobState) -> list[Job]:
        wanted = set(states)
        # repro-lint: ignore[R3] submission (insertion) order IS the FIFO queue semantics
        return [j for j in self._jobs.values() if j.state in wanted]

    def first_eligible(self) -> Job | None:
        """Oldest QUEUED job — the FIFO policy."""
        # repro-lint: ignore[R3] submission (insertion) order IS the FIFO queue semantics
        for job in self._jobs.values():
            if job.state is JobState.QUEUED:
                return job
        return None

    def running(self) -> list[Job]:
        return self.in_state(JobState.RUNNING, JobState.EXITING)

    def snapshot(self) -> list[Job]:
        """All jobs in submission order (jobs are immutable; safe to share)."""
        return list(self._jobs.values())

    def to_wire(self, since: int = 0) -> list[PlainFragment]:
        """The qstat rows of the jobs changed after generation *since* (by
        default every job) in submission order, pre-encoded (an unchanged
        job costs one attribute read — ``Job.wire_row``)."""
        jobs = self._jobs
        if since <= 0:
            # repro-lint: ignore[R3] submission (insertion) order IS the FIFO queue semantics
            return [job.wire_row for job in jobs.values()]
        changed = []
        # repro-lint: ignore[R3] stamps are kept in generation order, so walking back from the newest stops at the first stamp <= since; the ids found are re-sorted by queue rank, so history never reaches the result
        for job_id, stamp in reversed(self._stamps.items()):
            if stamp <= since:
                break
            changed.append(job_id)
        changed.sort(key=self._ranks.__getitem__)
        return [jobs[job_id].wire_row for job_id in changed]
