"""The PBS mom: per-compute-node job execution daemon.

Reproduces the behaviours the paper's prototype leaned on:

* **multi-server reporting** (TORQUE v2.0p1): one mom serves every head
  node's PBS server and broadcasts each job's obituary to all of them, so
  replicated servers that only *emulated* a job's start still learn it
  finished;
* **prologue hooks**: scripts run before the user job. JOSHUA's ``jmutex``
  is such a hook — it decides, via the group communication system, whether
  this particular server's start attempt actually executes the job
  (``"run"``) or merely pretends to (``"emulate"``); a hook that cannot
  tell (``"undecided"``) refuses the attempt, so the server keeps the job
  queued and its scheduler tries again. Without hooks, a
  duplicate start attempt for a job that is already running is rejected,
  which is exactly the plain-TORQUE behaviour that makes naive multi-head
  replication unsafe;
* **the §5 obituary bug**: the paper found moms "did not simply ignore a
  failed head node, but rather kept the current job in running status until
  it returned to service". A mom whose ``legacy_obit_retry`` is set
  reproduces that: the job stays in its running set until *every*
  registered server has acknowledged the obituary. The default (``False``)
  is the fixed behaviour the TORQUE developers promised: give up on a
  server after a deadline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

from repro.cluster.daemon import Daemon
from repro.net.address import Address
from repro.obs.collector import collector_of
from repro.pbs.job import KILLED_EXIT_STATUS
from repro.pbs.service_times import ERA_2006, ServiceTimes
from repro.pbs.wire import (
    AdminPurge,
    AdminServers,
    JobObit,
    JobStartReq,
    JobStartResp,
    KillJobReq,
    SimpleResp,
)
from repro.rpc import RpcDispatcher, RpcTimeout, call as rpc_call, rpc_state
from repro.rpc.wire import bad_request
from repro.sim.process import Process
from repro.util.errors import Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["PBSMom", "PrologueHook"]

#: A prologue hook: generator taking (mom, start request) and returning
#: "run", "emulate" or "undecided".
PrologueHook = Callable[["PBSMom", JobStartReq], Generator]


class _RunningJob:
    def __init__(self, req: JobStartReq, process: Process, started_at: float):
        self.req = req
        self.process = process
        self.started_at = started_at
        self.killed = False


class PBSMom(Daemon):
    """Execution daemon on one compute node."""

    #: Seconds between obituary resends to a server that has not answered,
    #: and how long before that server is given up on.
    obit_retry_interval = 0.5
    obit_give_up = 5.0
    #: The §5 bug: retry an unanswered obituary forever, holding the job.
    legacy_obit_retry = False

    def __init__(
        self,
        node: "Node",
        *,
        servers: list[Address],
        port: int = 15002,
        service_times: ServiceTimes = ERA_2006,
    ):
        super().__init__(node, "pbs_mom", port)
        self.servers = list(servers)
        self.times = service_times
        #: Extension points the HA layers assign after construction
        #: (``install_jmutex``, ``InvariantSuite``).
        self.prologue_hooks: list[PrologueHook] = []
        self.on_job_start: Callable[[JobStartReq], None] | None = None
        self.on_job_done: Callable[[JobObit], None] | None = None
        #: job_id -> running record (real executions only).
        self.active: dict[str, _RunningJob] = {}
        #: job_id -> obit, kept for late duplicate start attempts.
        self.finished: dict[str, JobObit] = {}
        #: (server, request id) of every start attempt still in its prologue.
        self._starting: set[tuple[Address, int]] = set()
        self.stats = {"runs": 0, "emulations": 0, "rejections": 0, "kills": 0,
                      "obits_sent": 0, "obits_abandoned": 0}
        self.rpc = RpcDispatcher(self, fallback=bad_request)
        self.rpc.register(JobStartReq, self._handle_start)
        self.rpc.register(KillJobReq, self._handle_kill)

    # -- main loop ----------------------------------------------------------

    def on_start(self) -> None:
        rpc_state(self.node.network).on_request.append(self._count_obit)

    def on_stop(self, *, crashed: bool) -> None:
        rpc_state(self.node.network).on_request.remove(self._count_obit)

    def _count_obit(self, node, server, request_id, payload, attempt) -> None:
        # on_request observer: only rpc.call knows when it puts a resend on the wire.
        if type(payload) is JobObit and node == self.node.name:
            self.stats["obits_sent"] += 1

    def run(self):
        while True:
            delivery = yield self.endpoint.recv()
            frame = delivery.payload
            if isinstance(frame, AdminServers):
                self.servers = list(frame.servers)
            elif isinstance(frame, AdminPurge):
                for job_id, record in sorted(self.active.items()):
                    if record.process is not None:
                        record.process.interrupt("purged")
                    self.active.pop(job_id, None)
                    self.stats["kills"] += 1
            else:
                self.rpc.handle_frame(delivery.src, frame)

    # -- start attempts -----------------------------------------------------------

    def _handle_start(self, src: Address, request_id: int, req: JobStartReq):
        # A server resends an attempt it has no answer to under the same
        # request id. Deciding it twice could launch the job after the first
        # answer told the server it did not start; one answer serves both.
        attempt = (src, request_id)
        if attempt in self._starting:
            return None
        self._starting.add(attempt)
        try:
            return (yield from self._decide_and_start(req))
        finally:
            self._starting.discard(attempt)

    def _decide_and_start(self, req: JobStartReq):
        yield self.kernel.timeout(self.times.mom_start)
        if req.job_id in self.finished:
            # Late attempt for a job that already ran to completion here:
            # report emulation and re-send the obit to the asking server.
            return self._already_finished(req)

        decision = "run"
        for hook in self.prologue_hooks:
            decision = yield from hook(self, req)
            if decision != "run":
                break

        if decision == "run" and req.job_id in self.finished:
            # The job ran to completion *while the prologue was deciding*
            # (the jmutex RPC takes real time). Without this re-check the
            # attempt would slip past both the already-finished guard above
            # and the already-running guard below, and the job would really
            # execute a second time.
            return self._already_finished(req)

        if decision == "run" and req.job_id in self.active:
            # Plain TORQUE (no jmutex): a duplicate start is an error.
            if self.prologue_hooks:
                decision = "emulate"
            else:
                self.stats["rejections"] += 1
                return JobStartResp(False, "run", "job already running")

        if decision == "undecided":
            self.stats["rejections"] += 1
            return JobStartResp(False, "emulate", "launch decision not reached")

        collector = collector_of(self.node.network)
        if decision == "emulate":
            self.stats["emulations"] += 1
            if collector is not None:
                collector.job_event(self.node.name, "job.emulated",
                                    job_id=req.job_id,
                                    server=str(req.server))
            return JobStartResp(True, "emulate")

        # Actually execute.
        self.stats["runs"] += 1
        if collector is not None:
            collector.job_event(self.node.name, "job.launched",
                                job_id=req.job_id, server=str(req.server))
        process = self.spawn(self._execute(req), name=f"{self.tag}-job-{req.job_id}")
        self.active[req.job_id] = _RunningJob(req, process, self.kernel.now)
        if self.on_job_start is not None:
            self.on_job_start(req)
        return JobStartResp(True, "run")

    def _already_finished(self, req: JobStartReq) -> JobStartResp:
        self.stats["emulations"] += 1
        if req.server is not None:
            self._send_obit(req.server, self.finished[req.job_id])
        return JobStartResp(True, "emulate", "already finished")

    def _execute(self, req: JobStartReq):
        exit_status = req.spec.exit_status
        try:
            yield self.kernel.timeout(req.spec.walltime)
        except Interrupt as interrupt:
            if interrupt.cause != "killed":
                raise  # daemon/node teardown, not a qdel: die with the node
            exit_status = KILLED_EXIT_STATUS
        record = self.active.get(req.job_id)
        started_at = record.started_at if record else self.kernel.now
        yield self.kernel.timeout(self.times.mom_finish)
        self.active.pop(req.job_id, None)
        obit = JobObit(
            job_id=req.job_id,
            exit_status=exit_status,
            exec_nodes=req.exec_nodes,
            started_at=started_at,
            finished_at=self.kernel.now,
        )
        self.finished[req.job_id] = obit
        collector = collector_of(self.node.network)
        if collector is not None:
            collector.job_event(self.node.name, "job.obit",
                                job_id=req.job_id, exit_status=exit_status,
                                ran_s=round(obit.finished_at - obit.started_at, 6))
        if self.on_job_done is not None:
            self.on_job_done(obit)
        yield from self._broadcast_obit(obit)

    def _handle_kill(self, src: Address, request_id: int, req: KillJobReq) -> SimpleResp:
        record = self.active.get(req.job_id)
        if record is not None and record.process is not None and not record.killed:
            record.killed = True
            self.stats["kills"] += 1
            record.process.interrupt("killed")
        return SimpleResp()

    # -- obituaries ------------------------------------------------------------------

    def _broadcast_obit(self, obit: JobObit):
        """Tell every registered server, each in its own conversation.

        Legacy (bug-compatible) behaviour: keep the job in our running set
        while any server is unreached, exactly the deficiency §5 describes.
        """
        deliveries = [self._send_obit(s, obit) for s in sorted(set(self.servers))]
        if self.legacy_obit_retry:
            self.active[obit.job_id] = _RunningJob(
                JobStartReq(obit.job_id, None, obit.exec_nodes), None, obit.started_at
            )
            try:
                yield self.kernel.all_of(deliveries)
            finally:
                self.active.pop(obit.job_id, None)

    def _send_obit(self, server: Address, obit: JobObit) -> Process:
        return self.spawn(
            self._deliver_obit(server, obit),
            name=f"{self.tag}-obit-{obit.job_id}-{server.node}",
        )

    def _deliver_obit(self, server: Address, obit: JobObit):
        """One conversation with *server*: resent every ``obit_retry_interval``
        until answered, abandoned (leaving a ``TimeoutRecord``) once the server
        has been silent for ``obit_give_up`` — or, legacy, started over."""
        while True:
            try:
                yield from rpc_call(
                    self.node.network, self.node.name, server, obit,
                    timeout=self.obit_retry_interval,
                    retries=int(self.obit_give_up / self.obit_retry_interval),
                )
            except RpcTimeout:
                if self.legacy_obit_retry:
                    continue
                self.stats["obits_abandoned"] += 1
            return
