"""The Maui scheduler stand-in.

Configured exactly as the paper configured Maui for the prototype (§4):

* **FIFO policy** (Maui's default) — "to produce deterministic scheduling
  behavior on all active head nodes";
* **exclusive access** — "Maui is configured to give each job exclusive
  access to our test cluster to produce deterministic allocation behavior":
  at most one job runs on the cluster at a time, and it gets whichever nodes
  it asked for, chosen deterministically (lexicographically first free).

Determinism is the load-bearing property: every replicated server must make
identical scheduling decisions from identical queues, otherwise the
replicas' states diverge.

The scheduler runs as its own daemon and talks to its server over the wire
(Maui is a separate process speaking the PBS scheduler API), polling every
``sched_poll_interval``. It keeps its own copy of the server's live jobs
(:class:`QueueView`) and each poll asks only for what changed since the
last reply it applied (PROTOCOLS.md §3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.daemon import Daemon
from repro.net.address import Address
from repro.pbs.job import JobRow
from repro.pbs.service_times import ERA_2006, ServiceTimes
from repro.pbs.wire import RunJobReq, SchedPollReq, SchedPollResp
from repro.rpc import RpcTimeout, call as rpc_call
from repro.util.errors import PBSError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["MauiScheduler", "QueueView", "fifo_decide"]


def fifo_decide(rows: list[JobRow], node_free: list[tuple[str, bool]]) -> tuple[str, tuple[str, ...]] | None:
    """Pure scheduling decision: which job to start where, or ``None``.

    Exposed as a function so tests (and the replicated-state argument) can
    check determinism directly: same inputs, same decision, no hidden state.
    """
    if any(r.state in ("R", "E") for r in rows):
        return None  # exclusive access: one job on the cluster at a time
    # Strict FIFO: only the head of the queue is considered. A large job
    # that does not fit blocks everything behind it — no backfill, which is
    # part of what keeps replicated schedulers deterministic.
    row = next((r for r in rows if r.state == "Q"), None)
    if row is None:
        return None
    free_nodes = [name for name, free in node_free if free]
    if row.nodes <= len(free_nodes):
        return row.job_id, tuple(sorted(free_nodes)[: row.nodes])
    return None


class QueueView:
    """The scheduler's copy of its server's live jobs, in queue order.

    A reply under another epoch (or epoch 0) replaces the copy. Otherwise
    a row overwrites its job in place, a job not held is new and so ranks
    past every job held, and a ``"C"`` row drops its job.
    """

    def __init__(self):
        self.epoch = 0
        self.generation = 0
        self.jobs: dict[str, JobRow] = {}

    def request(self) -> SchedPollReq:
        return SchedPollReq(self.epoch, self.generation)

    def apply(self, poll: SchedPollResp) -> None:
        if poll.epoch != self.epoch or poll.epoch == 0:
            self.jobs = {}
        jobs = self.jobs
        for row in poll.rows:
            if row.state == "C":
                jobs.pop(row.job_id, None)
            else:
                jobs[row.job_id] = row
        self.epoch, self.generation = poll.epoch, poll.generation

    def rows(self) -> list[JobRow]:
        return list(self.jobs.values())


class MauiScheduler(Daemon):
    """Polling FIFO scheduler bound to one PBS server."""

    def __init__(
        self,
        node: "Node",
        *,
        server: Address,
        port: int = 15004,
        service_times: ServiceTimes = ERA_2006,
    ):
        super().__init__(node, "maui", port)
        self.server = server
        self.times = service_times
        self.stats = {"cycles": 0, "dispatches": 0, "dispatch_failures": 0}
        self.view = QueueView()

    def run(self):
        while True:
            yield self.kernel.timeout(self.times.sched_poll_interval)
            self.stats["cycles"] += 1
            try:
                poll = yield from rpc_call(
                    self.node.network, self.node.name, self.server,
                    self.view.request(), timeout=1.0,
                )
            except (RpcTimeout, PBSError):
                continue  # server briefly unavailable; poll again
            self.view.apply(poll)
            yield self.kernel.timeout(self.times.sched_cycle)
            decision = fifo_decide(self.view.rows(), list(poll.node_free))
            if decision is None:
                continue
            job_id, exec_nodes = decision
            try:
                response = yield from rpc_call(
                    self.node.network, self.node.name, self.server,
                    RunJobReq(job_id, exec_nodes), timeout=4.0,
                )
            except (RpcTimeout, PBSError):
                self.stats["dispatch_failures"] += 1
                continue
            if response.ok:
                self.stats["dispatches"] += 1
            else:
                self.stats["dispatch_failures"] += 1
