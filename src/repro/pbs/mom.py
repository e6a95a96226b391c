"""The PBS mom: per-compute-node job execution daemon.

Reproduces the behaviours the paper's prototype leaned on:

* **multi-server reporting** (TORQUE v2.0p1): one mom serves every head
  node's PBS server and broadcasts each job's obituary to all of them, so
  replicated servers that only *emulated* a job's start still learn it
  finished;
* **prologue hooks**: scripts run before the user job. JOSHUA's ``jmutex``
  is such a hook — it decides, via the group communication system, whether
  this particular server's start attempt actually executes the job
  (``"run"``) or merely pretends to (``"emulate"``). Without hooks, a
  duplicate start attempt for a job that is already running is rejected,
  which is exactly the plain-TORQUE behaviour that makes naive multi-head
  replication unsafe;
* **the §5 obituary bug**: the paper found moms "did not simply ignore a
  failed head node, but rather kept the current job in running status until
  it returned to service". ``legacy_obit_retry=True`` reproduces that: the
  job stays in the mom's running set until *every* registered server has
  acknowledged the obituary. The default (``False``) is the fixed behaviour
  the TORQUE developers promised: give up on a server after a deadline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

from repro.cluster.daemon import Daemon
from repro.net.address import Address
from repro.obs.collector import collector_of
from repro.pbs.job import KILLED_EXIT_STATUS
from repro.pbs.service_times import ERA_2006, ServiceTimes
from repro.pbs.wire import (
    AdminServers,
    JobObit,
    JobStartReq,
    JobStartResp,
    KillJobReq,
    SimpleResp,
)
from repro.rpc import rpc_state
from repro.rpc.wire import Reply, Request
from repro.sim.process import Process
from repro.util.errors import Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["PBSMom", "PrologueHook"]

#: Family name for per-obituary acknowledgement ports (allocated from the
#: simulation-scoped counter state — see :func:`repro.rpc.rpc_state`).
_OBIT_PORT_FAMILY = "obit-port"
_OBIT_PORT_START = 16000

#: A prologue hook: generator taking (mom, start request) and returning
#: "run" or "emulate".
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

    def __init__(
        self,
        node: "Node",
        *,
        servers: list[Address],
        port: int = 15002,
        service_times: ServiceTimes = ERA_2006,
        legacy_obit_retry: bool = False,
    ):
        super().__init__(node, "pbs_mom", port)
        self.servers = list(servers)
        self.times = service_times
        #: Extension points the HA layers assign after construction
        #: (``install_jmutex``, ``InvariantSuite``).
        self.prologue_hooks: list[PrologueHook] = []
        self.on_job_start: Callable[[JobStartReq], None] | None = None
        self.on_job_done: Callable[[JobObit], None] | None = None
        self.legacy_obit_retry = legacy_obit_retry
        #: job_id -> running record (real executions only).
        self.active: dict[str, _RunningJob] = {}
        #: job_id -> servers whose attempts were emulated.
        self.emulated: dict[str, set[Address]] = {}
        #: job_id -> obit, kept for late duplicate start attempts.
        self.finished: dict[str, JobObit] = {}
        self.stats = {"runs": 0, "emulations": 0, "rejections": 0, "kills": 0,
                      "obits_sent": 0, "obits_abandoned": 0}

    # -- main loop ----------------------------------------------------------

    def run(self):
        while True:
            delivery = yield self.endpoint.recv()
            frame = delivery.payload
            if isinstance(frame, Request):
                request_id, payload = frame.request_id, frame.payload
                if isinstance(payload, JobStartReq):
                    self.spawn(
                        self._handle_start(delivery.src, request_id, payload),
                        name=f"{self.tag}-start-{payload.job_id}",
                    )
                elif isinstance(payload, KillJobReq):
                    self._handle_kill(payload)
                    self.endpoint.send(delivery.src, Reply(request_id, SimpleResp()))
                else:
                    self.endpoint.send(
                        delivery.src, Reply(request_id, SimpleResp(False, "bad request"))
                    )
                continue
            if isinstance(frame, AdminServers):
                # The HA layer announces the current set of head-node
                # servers after a membership change; obituaries follow it.
                self.servers = list(frame.servers)
                continue
            if not isinstance(frame, tuple) or not frame:
                continue
            if frame[0] == "ADMIN-PURGE":
                # Failover managers abort orphaned jobs: the applications
                # lost their parent server and must be restarted (the
                # active/standby semantics the paper contrasts against).
                for job_id, record in sorted(self.active.items()):
                    if record.process is not None:
                        record.process.interrupt("purged")
                    self.active.pop(job_id, None)
                    self.stats["kills"] += 1
            # OBIT-ACK frames are consumed by the per-obit senders via
            # endpoint callbacks; see _broadcast_obit.

    # -- start attempts -----------------------------------------------------------

    def _handle_start(self, src: Address, request_id: int, req: JobStartReq):
        yield self.kernel.timeout(self.times.mom_start)
        if req.job_id in self.finished:
            # Late attempt for a job that already ran to completion here:
            # report emulation and re-send the obit to the asking server.
            self.stats["emulations"] += 1
            self._reply_start(src, request_id, JobStartResp(True, "emulate", "already finished"))
            if req.server is not None:
                self._send_obit_to(req.server, self.finished[req.job_id])
            return

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
            self.stats["emulations"] += 1
            self._reply_start(src, request_id, JobStartResp(True, "emulate", "already finished"))
            if req.server is not None:
                self._send_obit_to(req.server, self.finished[req.job_id])
            return

        if decision == "run" and req.job_id in self.active:
            # Plain TORQUE (no jmutex): a duplicate start is an error.
            if self.prologue_hooks:
                decision = "emulate"
            else:
                self.stats["rejections"] += 1
                self._reply_start(
                    src, request_id, JobStartResp(False, "run", "job already running")
                )
                return

        collector = collector_of(self.node.network)
        if decision == "emulate":
            self.stats["emulations"] += 1
            self.emulated.setdefault(req.job_id, set())
            if req.server is not None:
                self.emulated[req.job_id].add(req.server)
            if collector is not None:
                collector.job_event(self.node.name, "job.emulated",
                                    job_id=req.job_id,
                                    server=str(req.server))
            self._reply_start(src, request_id, JobStartResp(True, "emulate"))
            return

        # Actually execute.
        self.stats["runs"] += 1
        if collector is not None:
            collector.job_event(self.node.name, "job.launched",
                                job_id=req.job_id, server=str(req.server))
        process = self.spawn(self._execute(req), name=f"{self.tag}-job-{req.job_id}")
        self.active[req.job_id] = _RunningJob(req, process, self.kernel.now)
        if self.on_job_start is not None:
            self.on_job_start(req)
        self._reply_start(src, request_id, JobStartResp(True, "run"))

    def _reply_start(self, src: Address, request_id: int, response: JobStartResp) -> None:
        if self.running and not self.endpoint.closed:
            self.endpoint.send(src, Reply(request_id, response))

    def _execute(self, req: JobStartReq):
        record = None
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
        self.spawn(self._broadcast_obit(obit), name=f"{self.tag}-obit-{req.job_id}")

    def _send_obit_to(self, server: Address, obit: JobObit) -> None:
        """Re-deliver a finished job's obituary to one (late) server."""

        def once():
            yield from self._obit_loop(obit, {server})

        self.spawn(once(), name=f"{self.tag}-reobit-{obit.job_id}")

    def _handle_kill(self, req: KillJobReq) -> None:
        record = self.active.get(req.job_id)
        if record is None or record.process is None:
            return
        if not record.killed:
            record.killed = True
            self.stats["kills"] += 1
            record.process.interrupt("killed")

    # -- obituaries ------------------------------------------------------------------

    def _broadcast_obit(self, obit: JobObit):
        """Send the obituary to every registered server until acknowledged.

        Fixed behaviour: abandon a server after ``obit_give_up`` seconds.
        Legacy (bug-compatible) behaviour: never abandon — and keep the job
        in our running set while any server is unreached, exactly the
        deficiency §5 describes.
        """
        if self.legacy_obit_retry:
            # Bug-compatible: the job lingers in our active set while any
            # head node is unreached.
            self.active[obit.job_id] = _RunningJob(
                JobStartReq(obit.job_id, None, obit.exec_nodes), None, obit.started_at
            )
        try:
            yield from self._obit_loop(obit, set(self.servers))
        finally:
            if self.legacy_obit_retry:
                self.active.pop(obit.job_id, None)

    def _obit_loop(self, obit: JobObit, pending: set):
        acked: set[Address] = set()

        def on_ack(delivery):
            frame = delivery.payload
            if (
                isinstance(frame, tuple)
                and len(frame) == 2
                and frame[0] == "OBIT-ACK"
                and frame[1] == obit.job_id
            ):
                acked.add(delivery.src)

        # Acks arrive on a dedicated per-obit endpoint so the daemon's main
        # mailbox never has to demultiplex them.
        port = rpc_state(self.node.network).next_id(
            _OBIT_PORT_FAMILY, _OBIT_PORT_START
        )
        ack_endpoint = self.node.network.bind(self.node.name, port)
        ack_endpoint.on_delivery(on_ack)
        started = self.kernel.now
        try:
            while pending - acked:
                for server in sorted(pending - acked):
                    ack_endpoint.send(server, ("OBIT", obit))
                    self.stats["obits_sent"] += 1
                yield self.kernel.timeout(self.obit_retry_interval)
                if not self.legacy_obit_retry and self.kernel.now - started > self.obit_give_up:
                    self.stats["obits_abandoned"] += len(pending - acked)
                    break
        finally:
            ack_endpoint.close()
