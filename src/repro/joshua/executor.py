"""The PBS driver: JOSHUA's side of the replication engine's seam.

The engine (:mod:`repro.aa.engine`) orders, dedups, caches and joins; this
class is what makes it JOSHUA (paper §4): each totally ordered command is
applied to the **local** TORQUE server through the ordinary PBS wire
protocol — identical command order + deterministic server/scheduler =
identical replica state — and a joining head is brought up by replaying a
capture of the local queue, taken at the marker cut, through the same PBS
interface (the prototype's approach; held jobs cannot be transferred — the
paper's limitation, reproduced).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.joshua.mutex import _MutexEntry
from repro.joshua.wire import Command, JDelReq, JSubReq, StateXferResp
from repro.net.address import Address
from repro.obs.collector import collector_of
from repro.pbs.job import JobSpec
from repro.pbs.wire import DeleteReq, PurgeReq, StatReq, SubmitReq
from repro.rpc import call as rpc_call
from repro.rpc.wire import ErrorResp, relay_error
from repro.util.errors import PBSError

if TYPE_CHECKING:  # pragma: no cover
    from repro.joshua.shard import ShardReplica

__all__ = ["SerialExecutor"]


class SerialExecutor:
    """Executes one replica's ordered commands against its local PBS."""

    #: Seconds per attempt of a request to the local PBS server.
    LOCAL_TIMEOUT = 3.0

    def __init__(self, replica: "ShardReplica"):
        self.s = replica
        #: job id -> the spec it was submitted with (a qstat row carries
        #: neither ``exit_status`` nor ``priority``, so a capture is built
        #: from these); pruned to the live jobs at each capture.
        self.specs: dict[str, JobSpec] = {}

    def local_rpc(self, payload, *, retries: int = 2):
        s = self.s
        response = yield from rpc_call(
            s.node.network, s.node.name, s.host.local_pbs, payload,
            timeout=self.LOCAL_TIMEOUT, retries=retries,
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
                # Every replica of this shard computes the same id from the
                # totally-ordered execution count (the striped id space).
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
            self.specs[job_id] = command.payload
            collector = collector_of(self.s.node.network)
            if collector is not None:
                # Later lifecycle events (claims, launches, obits) are
                # keyed by PBS job id; tie them back to this command.
                collector.job_alias(command.uuid, job_id)
        return result

    # -- engine seam: capture at the cut (sponsor side) ---------------------

    def capture_state(self, marker_uuid: str):
        s = self.s
        stat = yield from self.local_rpc(StatReq(None))
        items: list = []
        skipped: list[str] = []
        specs: dict[str, JobSpec] = {}
        for row in stat.rows:
            # The local PBS holds every shard's jobs; capture only our
            # stripe's live ones.
            job_id = row["job_id"]
            live = row["state"] in ("Q", "R", "E", "H", "W")
            if not (live and s.owns_job(job_id)):
                continue
            specs[job_id] = self.specs[job_id]
            if row["state"] == "H":
                # The paper's documented limitation: command replay
                # cannot reconstruct held jobs consistently.
                skipped.append(job_id)
                continue
            items.append(("submit", specs[job_id], job_id))
        self.specs = specs
        mutex = tuple(
            (job_id, entry.winner, entry.started)
            for job_id, entry in sorted(s.arbiter.entries.items())
        )
        # next_seq carries the stripe count, the shard's own id counter: it
        # advances in total order, so it also covers the ids of jobs that
        # finished before the sponsor itself joined.
        return StateXferResp(
            marker_uuid, tuple(items), s.stripe_count, mutex, tuple(skipped),
        )

    # -- engine seam: install a capture (joiner side) -----------------------

    def install_state(self, response: StateXferResp):
        s = self.s
        # Discard any stale local state of our stripe (a rejoining head
        # recovered its old queue from disk; the transferred state
        # supersedes it) — sibling replicas share this PBS server.
        yield from self.local_rpc(PurgeReq(s.nshards, s.index))
        self.specs = {job_id: spec for _kind, spec, job_id in response.items}
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
        s.stripe_count = response.next_seq
        for job_id, winner, started in response.mutex:
            s.arbiter.entries.setdefault(job_id, _MutexEntry(winner, started))
