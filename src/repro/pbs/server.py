"""The PBS server daemon (TORQUE ``pbs_server`` stand-in).

Responsibilities, mirroring the real thing where the experiments can tell:

* accept user commands (submit/stat/delete/hold/release/signal) over the
  wire, charging calibrated processing time per request and writing the job
  queue synchronously to the node's disk on every mutation;
* accept ``RunJobReq`` from the scheduler, dispatch the job to the mom on
  its first allocated node (the "mother superior"), track node allocation;
* accept obituaries from moms — including obituaries for jobs *this* server
  only ever saw started in emulation, which is how a replicated server
  learns its jobs finished (TORQUE v2.0p1 multi-server behaviour);
* recover its queue from disk on restart; running jobs found during
  recovery are requeued — "applications have to be restarted" (paper §1).

Request handling is idempotent per RPC id (a cached response is replayed on
client retry), so client-side retransmission cannot double-submit a job.

On-disk layout (TORQUE's ``server_priv``: ``serverdb`` plus one
``jobs/<id>.JB`` per job), all on the hosting node's
:class:`~repro.cluster.storage.Disk`:

``pbs.<server_name>``
    The server record, ``{"next_seq": n}``.
``pbs.<server_name>.job.<job_id>``
    One record per job in the queue, ``(queue rank, Job)``.

Every mutation rewrites the records of the jobs it changed and the server
record, and deletes the records of the jobs it removed — never the table,
so a commit costs the same whether the queue holds one job or a thousand.
Recovery reads every job record and re-adds the jobs in ascending queue
rank (:mod:`repro.pbs.queue`), which is the pre-crash queue order. The
requeue it applies to RUNNING/EXITING jobs is not written back: such a
job's record keeps its pre-crash state until the job's next mutation, and
recovering from it again yields the same requeued job. Everything under
the ``pbs.<server_name>`` prefix is also the unit the active/standby
baseline checkpoints (:mod:`repro.ha.active_standby`).
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.cluster.daemon import Daemon
from repro.net.address import Address
from repro.pbs.accounting import AccountingLog
from repro.pbs.job import Job, JobSpec, JobState, KILLED_EXIT_STATUS
from repro.pbs.queue import JobQueue
from repro.pbs.service_times import ERA_2006, ServiceTimes
from repro.pbs.wire import (
    DeleteReq,
    DeleteResp,
    HoldReq,
    JobObit,
    JobStartReq,
    KillJobReq,
    PurgeReq,
    ReleaseReq,
    RerunReq,
    RunJobReq,
    RunJobResp,
    SchedPollReq,
    SchedPollResp,
    SignalReq,
    SimpleResp,
    StatReq,
    StatResp,
    SubmitReq,
    SubmitResp,
)
from repro.rpc import ResponseCache, RpcDispatcher, call as rpc_call, rpc_state
from repro.rpc.wire import ErrorResp, bad_request
from repro.util.errors import InvalidJobStateError, PBSError, UnknownJobError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["PBSServer", "PBS_SERVER_PORT", "PBS_MOM_PORT"]

PBS_SERVER_PORT = 15001
PBS_MOM_PORT = 15002

#: A forced job id a server accepts: a sequence number >= 1, written
#: without sign or leading zero, a dot, and a non-empty suffix.
_FORCED_ID = re.compile(r"[1-9][0-9]*\..+")


class PBSServer(Daemon):
    """One PBS server instance on a head node.

    Parameters
    ----------
    node:
        Hosting head node.
    moms:
        Addresses of the PBS mom on every compute node.
    server_name:
        Suffix of generated job ids (``"7.torque"``). Replicated JOSHUA
        deployments give every server the same logical name so replayed
        submissions produce identical ids on every head — this reproduction's
        concession to the paper's observation that host-specific state makes
        replica construction painful.
    service_times:
        Calibrated processing costs.

    Jobs found RUNNING in the recovered queue are requeued (the paper's
    restart semantics).
    """

    def __init__(
        self,
        node: "Node",
        *,
        moms: list[Address],
        server_name: str = "torque",
        port: int = PBS_SERVER_PORT,
        service_times: ServiceTimes = ERA_2006,
    ):
        super().__init__(node, "pbs_server", port)
        self.moms = list(moms)
        self.server_name = server_name
        self.times = service_times
        self.jobs = JobQueue()
        self.accounting = AccountingLog()
        self.next_seq = 1
        #: compute node name -> currently-allocated job id (None = free).
        self.allocations: dict[str, str | None] = {
            mom.node: None for mom in self.moms
        }
        self.stats = {"submitted": 0, "completed": 0, "deleted": 0, "recovered": 0}
        #: Names this queue for the scheduler's incremental poll. A restart
        #: starts the generation over and a purge removes jobs, which no
        #: delta can say, so both take a new epoch.
        self.epoch = self._new_epoch()
        self.rpc = self._build_dispatcher()
        self._recover()

    def _new_epoch(self) -> int:
        return rpc_state(self.node.network).next_id("pbs-epoch")

    def _build_dispatcher(self) -> RpcDispatcher:
        """Typed request routing with the calibrated per-request delays.

        The response cache makes request handling idempotent per RPC id (a
        cached response is replayed on client retry), so client-side
        retransmission cannot double-submit a job.
        """
        t = self.times

        def on_error(exc):
            if isinstance(exc, UnknownJobError):
                return ErrorResp("unknown-job", str(exc))
            if isinstance(exc, InvalidJobStateError):
                return ErrorResp("bad-state", str(exc))
            if isinstance(exc, PBSError):
                return ErrorResp("pbs-error", str(exc))
            return None  # re-raise

        rpc = RpcDispatcher(
            self, cache=ResponseCache(), on_error=on_error, fallback=bad_request
        )
        reg = rpc.register
        reg(SubmitReq, lambda s, r, p: self._do_submit(p),
            delay=t.qsub_process + t.disk_write)
        reg(StatReq, lambda s, r, p: self._do_stat(p), delay=t.qstat_process)
        reg(DeleteReq, lambda s, r, p: self._do_delete(p),
            delay=t.qdel_process + t.disk_write)
        reg(HoldReq, lambda s, r, p: self._do_hold(p),
            delay=t.qdel_process + t.disk_write)
        reg(ReleaseReq, lambda s, r, p: self._do_release(p),
            delay=t.qdel_process + t.disk_write)
        reg(SignalReq, lambda s, r, p: self._do_signal(p), delay=t.qdel_process)
        reg(RerunReq, lambda s, r, p: self._do_rerun(p),
            delay=t.qdel_process + t.disk_write)
        reg(PurgeReq, lambda s, r, p: self._do_purge(p), delay=t.disk_write)
        reg(SchedPollReq, lambda s, r, p: self._do_sched_poll(p),
            delay=t.qstat_process)
        reg(RunJobReq, lambda s, r, p: self._do_run(p), delay=t.run_process)
        reg(JobObit, lambda s, r, p: self._handle_obit(p))
        return rpc

    # -- persistence -------------------------------------------------------

    def _disk_key(self) -> str:
        return f"pbs.{self.server_name}"

    def _job_key(self, job_id: str) -> str:
        return f"{self._disk_key()}.job.{job_id}"

    def _persist(self, *jobs: Job) -> None:
        """Write the records of the *jobs* a mutation changed, then the
        server record (see the module docstring for the layout)."""
        disk = self.node.disk
        for job in jobs:
            disk.write(
                self._job_key(job.job_id), (self.jobs.rank(job.job_id), job)
            )
        disk.write(self._disk_key(), {"next_seq": self.next_seq})

    def _recover(self) -> None:
        disk = self.node.disk
        saved = disk.read(self._disk_key())
        if saved is None:
            return
        self.next_seq = saved["next_seq"]
        records = [disk.read(key) for key in disk.keys(self._job_key(""))]
        for rank, job in sorted(records, key=lambda record: record[0]):
            if job.state in (JobState.RUNNING, JobState.EXITING):
                # Not Job.transition: EXITING -> QUEUED is no legal
                # *command* (a job being killed cannot be qrerun), but
                # the restart lost the kill in flight with everything
                # else volatile, and the application starts over.
                job = replace(
                    job,
                    state=JobState.QUEUED,
                    start_time=None,
                    exec_nodes=(),
                    comment="requeued after server recovery",
                )
                self.stats["recovered"] += 1
            self.jobs.add(job, rank)

    # -- accounting ----------------------------------------------------------

    def _notify(self, event: str, job: Job) -> None:
        self.accounting.record(self.kernel.now, event, job.job_id)

    # -- main loop --------------------------------------------------------------

    def run(self):
        while True:
            delivery = yield self.endpoint.recv()
            self.rpc.handle_frame(delivery.src, delivery.payload)

    # -- command implementations ---------------------------------------------------

    def _do_submit(self, req: SubmitReq) -> SubmitResp:
        # The spec arrives from outside the node too: a job is built only
        # from a JobSpec (which validated itself when it was decoded).
        if not isinstance(req.spec, JobSpec):
            raise PBSError(f"job spec {req.spec!r} is not a JobSpec")
        if req.force_job_id is not None:
            job_id = req.force_job_id
            # The id arrives from outside the node: refuse it before
            # anything changes unless it is <seq >= 1>.<suffix> and new.
            if not (isinstance(job_id, str) and _FORCED_ID.fullmatch(job_id)):
                raise PBSError(f"forced job id {job_id!r} is not <seq>.<suffix>")
            if job_id in self.jobs:
                raise PBSError(f"job with requested id already exists: {job_id}")
            forced_seq = int(job_id.split(".", 1)[0])
            self.next_seq = max(self.next_seq, forced_seq + 1)
        else:
            job_id = f"{self.next_seq}.{self.server_name}"
            self.next_seq += 1
        job = Job(job_id, req.spec, submit_time=self.kernel.now)
        self.jobs.add(job)
        self._persist(job)
        self.stats["submitted"] += 1
        self._notify("Q", job)
        return SubmitResp(job_id)

    def _do_stat(self, req: StatReq) -> StatResp:
        if req.job_id is None:
            return StatResp(tuple(self.jobs.to_wire()))
        return StatResp((self.jobs.get(req.job_id).wire_row,))

    def _do_delete(self, req: DeleteReq):
        job = self.jobs.get(req.job_id)
        if job.state is JobState.COMPLETE:
            raise InvalidJobStateError(job.job_id, job.state.value, "delete")
        if job.state in (JobState.RUNNING, JobState.EXITING):
            # Ask the mother superior to kill it; completion arrives as an
            # ordinary obituary with the killed exit status.
            mom = self._mom_for(job.exec_nodes[0])
            job = job.transition(JobState.EXITING, comment="qdel")
            self.jobs.update(job)
            self._persist(job)
            yield from rpc_call(
                self.node.network, self.node.name, mom, KillJobReq(job.job_id),
                timeout=1.0,
            )
        else:
            job = job.transition(
                JobState.COMPLETE,
                end_time=self.kernel.now,
                exit_status=None,
                comment="deleted by user",
            )
            self.jobs.update(job)
            self._persist(job)
            self.stats["deleted"] += 1
            self._notify("D", job)
        return DeleteResp(job.job_id)

    def _do_hold(self, req: HoldReq) -> SimpleResp:
        job = self.jobs.get(req.job_id)
        job = job.transition(JobState.HELD, comment="user hold")
        self.jobs.update(job)
        self._persist(job)
        self._notify("H", job)
        return SimpleResp()

    def _do_release(self, req: ReleaseReq) -> SimpleResp:
        job = self.jobs.get(req.job_id)
        job = job.transition(JobState.QUEUED, comment="released")
        self.jobs.update(job)
        self._persist(job)
        self._notify("R", job)
        return SimpleResp()

    def _do_signal(self, req: SignalReq) -> SimpleResp:
        # The paper notes qsig does not change managed state; JOSHUA leaves
        # it to plain PBS. We acknowledge without simulating process-level
        # signal effects.
        job = self.jobs.get(req.job_id)
        if job.state is not JobState.RUNNING:
            raise InvalidJobStateError(job.job_id, job.state.value, "signal")
        return SimpleResp(detail=f"signal {req.signal} delivered")

    def _do_rerun(self, req: RerunReq) -> SimpleResp:
        job = self.jobs.get(req.job_id)
        if job.state not in (JobState.RUNNING, JobState.EXITING):
            raise InvalidJobStateError(job.job_id, job.state.value, "rerun")
        for node_name in job.exec_nodes:
            if self.allocations.get(node_name) == job.job_id:
                self.allocations[node_name] = None
        job = job.transition(
            JobState.QUEUED,
            start_time=None,
            exec_nodes=(),
            comment="requeued by qrerun",
        )
        self.jobs.update(job)
        self._persist(job)
        self._notify("R", job)
        return SimpleResp()

    def _do_purge(self, req: PurgeReq) -> SimpleResp:
        # Only this replica unit's stripe of the job namespace goes; other
        # shards' jobs and the id counter stay.
        if not (req.stride >= 1 and 0 <= req.lane < req.stride):
            raise PBSError(f"no stripe lane {req.lane} of stride {req.stride}")
        doomed = [
            job.job_id
            for job in self.jobs
            if (int(job.job_id.split(".", 1)[0]) - 1) % req.stride == req.lane
        ]
        for job_id in doomed:
            self.jobs.remove(job_id)
            self.node.disk.delete(self._job_key(job_id))
            for node_name, owner in sorted(self.allocations.items()):
                if owner == job_id:
                    self.allocations[node_name] = None
        self.epoch = self._new_epoch()
        self._persist()
        return SimpleResp(detail=f"purged {len(doomed)} jobs")

    #: The span table of ``perf/layer_trace.py`` still names the retired
    #: bulk-load handler, and its ``install()`` raises on a missing name;
    #: bound to the one state-transfer admin handler left, the span never
    #: fires.
    _do_load_state = _do_purge

    def _do_sched_poll(self, req: SchedPollReq) -> SchedPollResp:
        # The fields come from outside the node: anything but this epoch
        # and a non-negative int generation gets the full table.
        since = req.since
        if not (req.epoch == self.epoch and type(since) is int and since >= 0):
            since = 0
        node_free = tuple(
            (name, allocated is None) for name, allocated in sorted(self.allocations.items())
        )
        return SchedPollResp(
            tuple(self.jobs.to_wire(since)), node_free, self.epoch, self.jobs.generation
        )

    def _do_run(self, req: RunJobReq):
        nodes = req.exec_nodes
        if not (type(nodes) is tuple and nodes
                and all(type(name) is str for name in nodes)):
            return RunJobResp(False, f"exec nodes {nodes!r} are not a "
                                     "non-empty tuple of node names")
        job = self.jobs.get(req.job_id)
        if job.state is not JobState.QUEUED:
            return RunJobResp(False, f"job state is {job.state.value}")
        for node_name in req.exec_nodes:
            if node_name not in self.allocations:
                return RunJobResp(False, f"unknown node {node_name}")
            if self.allocations[node_name] is not None:
                return RunJobResp(False, f"node {node_name} busy")
        for node_name in req.exec_nodes:
            self.allocations[node_name] = job.job_id
        mom = self._mom_for(req.exec_nodes[0])
        start = JobStartReq(job.job_id, job.spec, tuple(req.exec_nodes), self.address)
        try:
            response = yield from rpc_call(
                self.node.network, self.node.name, mom, start, timeout=2.0, retries=1
            )
        except PBSError as exc:
            for node_name in req.exec_nodes:
                self.allocations[node_name] = None
            return RunJobResp(False, f"mom unreachable: {exc}")
        if not response.ok:
            for node_name in req.exec_nodes:
                self.allocations[node_name] = None
            return RunJobResp(False, response.detail)
        job = self.jobs.get(req.job_id)
        job = job.transition(
            JobState.RUNNING,
            start_time=self.kernel.now,
            exec_nodes=tuple(req.exec_nodes),
            run_count=job.run_count + 1,
            comment=f"started ({response.mode})",
        )
        self.jobs.update(job)
        self._persist(job)
        self._notify("S", job)
        return RunJobResp(True, response.mode)

    def _mom_for(self, node_name: str) -> Address:
        for mom in self.moms:
            if mom.node == node_name:
                return mom
        raise PBSError(f"no mom registered for node {node_name}")

    # -- obituaries -----------------------------------------------------------------

    def _handle_obit(self, obit: JobObit) -> SimpleResp:
        # Every outcome is an answer: the mom resends until it has one.
        if obit.job_id not in self.jobs:
            return SimpleResp()  # e.g. obit for a job deleted from this replica
        job = self.jobs.get(obit.job_id)
        if job.state is JobState.COMPLETE:
            return SimpleResp()  # duplicate obit
        if job.state is JobState.QUEUED:
            # We never saw it start (recovered server): record the start so
            # state stays coherent, then complete it.
            job = job.transition(
                JobState.RUNNING,
                start_time=obit.started_at,
                exec_nodes=tuple(obit.exec_nodes),
                run_count=job.run_count + 1,
            )
        job = job.transition(
            JobState.COMPLETE,
            end_time=obit.finished_at,
            exit_status=obit.exit_status,
            comment="killed" if obit.exit_status == KILLED_EXIT_STATUS else "finished",
        )
        self.jobs.update(job)
        # Free every local allocation held by this job — not only the
        # nodes the obituary names: a replicated server whose (emulated)
        # dispatch chose different nodes than the actual execution must
        # not leak its own allocation records.
        for node_name, owner in sorted(self.allocations.items()):
            if owner == obit.job_id:
                self.allocations[node_name] = None
        self._persist(job)
        self.stats["completed"] += 1
        self._notify("E", job)
        return SimpleResp()
