"""The PBS driver: JOSHUA's side of the replication engine's seam.

The engine (:mod:`repro.aa.engine`) orders, dedups, caches and joins; this
class is what makes it JOSHUA (paper §4): each totally ordered command is
applied to the **local** TORQUE server through the ordinary PBS wire
protocol — identical command order + deterministic server/scheduler =
identical replica state — and a joining head is brought up from a capture
of the local queue taken at the marker cut.

Two transfer modes: ``"replay"`` re-submits live jobs through the PBS
interface (the prototype's approach; held jobs cannot be transferred —
reproduced limitation), ``"snapshot"`` bulk-loads job records (the
future-work mode).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.joshua.mutex import _MutexEntry
from repro.joshua.wire import Command, JDelReq, JSubReq, StateXferResp
from repro.net.address import Address
from repro.obs.collector import collector_of
from repro.pbs.job import Job, JobSpec, JobState
from repro.pbs.wire import (
    CaptureReq,
    DeleteReq,
    LoadStateReq,
    PurgeReq,
    StatReq,
    SubmitReq,
)
from repro.rpc import call as rpc_call
from repro.rpc.wire import ErrorResp, relay_error
from repro.util.errors import PBSError

if TYPE_CHECKING:  # pragma: no cover
    from repro.joshua.shard import ShardReplica

__all__ = ["SerialExecutor", "spec_from_row", "job_from_row"]


def spec_from_row(row: dict) -> JobSpec:
    return JobSpec(
        name=row["name"],
        owner=row["owner"],
        nodes=row["nodes"],
        walltime=row["walltime"],
        queue=row["queue"],
    )


def job_from_row(row: dict, now: float) -> Job:
    """The :class:`Job` record a snapshot transfers for one qstat *row*."""
    state = JobState(row["state"])
    job = Job(
        row["job_id"],
        spec_from_row(row),
        submit_time=now,
        comment="state transfer",
    )
    if state in (JobState.RUNNING, JobState.EXITING):
        job = job.transition(
            JobState.RUNNING,
            start_time=now,
            exec_nodes=tuple(row["exec_nodes"]),
            run_count=1,
        )
    elif state is JobState.HELD:
        job = job.transition(JobState.HELD)
    elif state is JobState.WAITING:
        job = job.transition(JobState.WAITING)
    return job


class SerialExecutor:
    """Executes one replica's ordered commands against its local PBS."""

    def __init__(self, replica: "ShardReplica"):
        self.s = replica

    def local_rpc(self, payload, *, timeout: float = 3.0, retries: int = 2):
        s = self.s
        response = yield from rpc_call(
            s.node.network, s.node.name, s.host.local_pbs, payload,
            timeout=timeout, retries=retries,
        )
        return response

    # -- client command intake ----------------------------------------------

    def submit(self, src: Address, request_id: int, payload):
        """Hand an incoming ``jsub``/``jdel``/``jstat`` to the engine as a
        :class:`Command`."""
        if isinstance(payload, JSubReq):
            command = Command(payload.uuid, "jsub", payload.spec)
        elif isinstance(payload, JDelReq):
            command = Command(payload.uuid, "jdel", payload.job_id)
        else:
            command = Command(payload.uuid, "jstat", payload.job_id)
        return self.s.submit(
            src, request_id, command, bool(getattr(payload, "track_seq", False))
        )

    # -- engine seam: execute -----------------------------------------------

    def execute_command(self, command: Command):
        try:
            if command.kind == "jsub":
                # Sharded deployments stripe the job-id space: every
                # replica of this shard computes the same forced id from
                # the totally-ordered execution count. None = single
                # shard, the local PBS assigns ids itself.
                request = SubmitReq(
                    command.payload, force_job_id=self.s.next_forced_job_id()
                )
            elif command.kind == "jdel":
                request = DeleteReq(command.payload)
            elif command.kind == "jstat":
                request = StatReq(command.payload)
            else:  # pragma: no cover - protocol guard
                return ErrorResp("bad-command", command.kind)
            result = yield from self.local_rpc(request)
        except PBSError as exc:
            return relay_error(exc)
        job_id = getattr(result, "job_id", None)
        if command.kind == "jsub" and job_id is not None:
            collector = collector_of(self.s.node.network)
            if collector is not None:
                # Later lifecycle events (claims, launches, obits) are
                # keyed by PBS job id; tie them back to this command.
                collector.job_alias(command.uuid, job_id)
        return result

    # -- engine seam: capture at the cut (sponsor side) ---------------------

    def capture_state(self, marker_uuid: str):
        s = self.s
        mode = s.host.state_transfer
        capture = yield from self.local_rpc(CaptureReq())
        rows = list(capture.rows)
        # Never inferred from the rows: a sponsor that itself joined holds
        # no row of the jobs that finished before, and their ids are taken.
        next_seq = capture.next_seq
        if s.nshards > 1:
            # The local PBS holds every shard's jobs; capture only our
            # stripe. next_seq then carries the *stripe count*: the
            # replica's own counter, which advances in total order.
            rows = [r for r in rows if s.owns_job(r["job_id"])]
            next_seq = s.stripe_count
        live = [r for r in rows if r["state"] in ("Q", "R", "E", "H", "W")]
        skipped: list[str] = []
        items: list = []
        if mode == "replay":
            for row in live:
                if row["state"] == "H":
                    # The paper's documented limitation: command replay
                    # cannot reconstruct held jobs consistently.
                    skipped.append(row["job_id"])
                    continue
                items.append(("submit", spec_from_row(row), row["job_id"]))
        else:
            for row in live:
                items.append(job_from_row(row, s.kernel.now))
        mutex = tuple(
            (job_id, entry.winner, entry.started)
            for job_id, entry in sorted(s.arbiter.entries.items())
        )
        return StateXferResp(
            marker_uuid, mode, tuple(items), next_seq, mutex,
            tuple(skipped),
        )

    # -- engine seam: install a capture (joiner side) -----------------------

    def install_state(self, response: StateXferResp):
        s = self.s
        sharded = s.nshards > 1
        # Discard any stale local state (a rejoining head recovered its old
        # queue from disk; the transferred state supersedes it). Sharded:
        # wipe only our stripe — sibling replicas share this PBS server.
        yield from self.local_rpc(
            PurgeReq(s.nshards, s.index) if sharded else PurgeReq()
        )
        if response.mode == "replay":
            if not sharded:
                # "Configuration file modification": align the id counter
                # first, then replay the live jobs through the ordinary PBS
                # interface. (Sharded submissions carry forced striped ids,
                # so there is no counter to align — next_seq is the stripe
                # count, restored below.)
                yield from self.local_rpc(LoadStateReq((), response.next_seq))
            for _kind, spec, job_id in response.items:
                try:
                    yield from self.local_rpc(SubmitReq(spec, force_job_id=job_id))
                except PBSError as exc:  # pragma: no cover - replay guard
                    s.log.error(s.tag, f"replay of {job_id} failed: {exc}")
            if response.skipped:
                s.log.warning(
                    s.tag,
                    f"replay could not transfer held jobs: {list(response.skipped)}",
                )
        else:
            # Sharded snapshots merge into the shared queue (other shards'
            # jobs survived the stripe purge) and leave the id counter to
            # the forced-id ratchet.
            yield from self.local_rpc(
                LoadStateReq(
                    tuple(response.items),
                    0 if sharded else response.next_seq,
                    merge=sharded,
                )
            )
        if sharded:
            s.stripe_count = response.next_seq
        for job_id, winner, started in response.mutex:
            s.arbiter.entries.setdefault(job_id, _MutexEntry(winner, started))
