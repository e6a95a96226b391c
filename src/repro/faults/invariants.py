"""Runtime invariant checkers for chaos runs.

The paper's guarantees are behavioural, so the chaos harness checks them
*while* a scenario runs rather than eyeballing end state. The suite taps the
live objects non-invasively — it chains onto the GCS delivery and view
callbacks, the mom's job-start/done hooks and the RPC client hooks,
preserving whatever callback was installed (the jmutex notifiers use the
same single-slot hooks) — and re-taps after node restarts via the node
lifecycle observers.

Checked invariants, by layer:

* **the group's contract** — every head's delivery and view callbacks feed
  one :class:`~repro.gcs.contract.GroupContract` per suite, the same
  checker the GCS tests run over bare members; its findings are wrapped
  as violations named by their rule (``gap-free``, ``total-order``,
  ``virtual-synchrony``, ``safe-delivery``, ``self-delivery``). Views are
  keyed by ``(view_id, member set)`` so two partition sides that reuse a
  numeric view id are not false-compared.
* **bounded delivery queue** — ``DeliveryQueue.payload_count()`` stays under
  ``QUEUE_BOUND`` on every live head (GC liveness: stability-based garbage
  collection must keep protocol state finite; see the paper's Transis
  crash post-mortem).
* **exactly-once launch** — no job ever has two *real* executions in flight
  at once (hard violation at the moment it happens), and across the whole
  run a job gains extra launches only if launch-mutex revocations
  (deliberate requeues of a dead winner's claim) account for them.
* **what clients were told** — one :class:`~repro.faults.history.History`
  records every client operation from the RPC hooks and judges it, with
  one end-of-run read of every active head's table, against a single
  TORQUE server (``linearizable``), plus PROTOCOLS.md §12's session
  guarantees for local reads (``read-your-writes``, ``monotonic-reads``)
  and the stamp of every tracked write (``tracked-write-stamped``). The
  suite has no client-facing rule of its own; what the history exempts
  (PROTOCOLS.md §4.1's heal renumbering) is kept in
  :attr:`InvariantSuite.exempted`, apart from the violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.faults.history import History
from repro.gcs.contract import GroupContract
from repro.obs.collector import collector_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.joshua.deploy import JoshuaStack
    from repro.joshua.server import JoshuaServer
    from repro.pbs.mom import PBSMom

__all__ = ["Violation", "InvariantSuite"]

#: Most protocol payloads a live head's delivery queue may hold.
QUEUE_BOUND = 500


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    invariant: str
    time: float
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"[{self.time:9.3f}s] {self.invariant}: {self.detail}"


class InvariantSuite:
    """Attaches all checkers to a deployed :class:`JoshuaStack`."""

    def __init__(self, stack: "JoshuaStack"):
        self.stack = stack
        self.kernel = stack.cluster.kernel
        self.violations: list[Violation] = []
        #: The group layer's contract, over every tapped shard member.
        self.contract = GroupContract()
        self.contract.on_finding = lambda f: self._violate(f.rule, f.detail)
        #: job_id -> total real launches observed across all moms.
        self.launches: dict[str, int] = {}
        #: job_id -> executions currently in flight (must never exceed 1).
        self._in_flight: dict[str, int] = {}
        #: Revocations counted out of daemons that later crashed.
        self._dead_revocations = 0
        #: Live joshua daemons we tapped, by head (kept to read stats at crash).
        self._tapped_joshua: dict[str, "JoshuaServer"] = {}
        self._observing: set[str] = set()
        #: Every client operation, judged at :meth:`final_check`.
        self.history = History(stack)
        #: What the history exempted rather than passed (PROTOCOLS.md §4.1).
        self.exempted: list[Violation] = []

    # -- wiring --------------------------------------------------------------

    def attach(self) -> "InvariantSuite":
        """Tap the stack, before the client operations it is to judge."""
        self.history.attach()
        for head in self.stack.head_names:
            node = self.stack.cluster.node(head)
            if node.is_up and "joshua" in node.daemons:
                self._tap_joshua(head, self.stack.joshua(head))
            self._observe(node)
        for compute in self.stack.cluster.computes:
            if compute.is_up and "pbs_mom" in compute.daemons:
                self._tap_mom(self.stack.mom(compute.name))
            self._observe(compute)
        return self

    def _observe(self, node: "Node") -> None:
        if node.name in self._observing:
            return
        self._observing.add(node.name)
        node.observe(self._on_lifecycle)

    def _on_lifecycle(self, node: "Node", event: str) -> None:
        if node.role == "head":
            if event == "crash":
                dead = self._tapped_joshua.pop(node.name, None)
                if dead is not None:
                    self._dead_revocations += dead.stats.get("revocations", 0)
            elif event == "restart" and "joshua" in node.daemons:
                self._tap_joshua(node.name, node.daemon("joshua"))
        elif node.role == "compute" and event == "restart":
            if "pbs_mom" in node.daemons:
                self._tap_mom(node.daemon("pbs_mom"))

    def _tap_joshua(self, head: str, joshua: "JoshuaServer") -> None:
        self._tapped_joshua[head] = joshua
        # One tap per shard group: each shard is its own total order, and
        # its distinct GCS port keeps its views apart in the contract.
        for member in joshua.groups:
            self.contract.attach(member)

    def _tap_mom(self, mom: "PBSMom") -> None:
        inner_start = mom.on_job_start
        inner_done = mom.on_job_done

        def on_start(req) -> None:
            self._record_launch(mom.node.name, req.job_id)
            if inner_start is not None:
                inner_start(req)

        def on_done(obit) -> None:
            self._in_flight[obit.job_id] = self._in_flight.get(obit.job_id, 1) - 1
            self.history.obit(obit.job_id)
            if inner_done is not None:
                inner_done(obit)

        mom.on_job_start = on_start
        mom.on_job_done = on_done

    # -- live recorders ------------------------------------------------------

    def _record_launch(self, compute: str, job_id: str) -> None:
        self.launches[job_id] = self.launches.get(job_id, 0) + 1
        self._in_flight[job_id] = self._in_flight.get(job_id, 0) + 1
        if self._in_flight[job_id] > 1:
            self._violate(
                "exactly-once-launch",
                f"{job_id} has {self._in_flight[job_id]} concurrent real "
                f"executions (latest on {compute})",
            )

    def observe_read(self, client: str, floors: dict, response) -> None:
        """Name *client* as the session of the read that returned
        *response*; the history judges it at :meth:`final_check`. The floors
        it judges by are the ones the request carried, so *floors* is not
        read."""
        self.history.observe_read(client, response)

    def _violate(self, invariant: str, detail: str) -> None:
        self.violations.append(Violation(invariant, self.kernel.now, detail))
        # With a flight recorder attached, every violation snapshots the
        # per-node rings into a postmortem bundle — the causal record of
        # the seconds leading up to the breach.
        collector = collector_of(self.stack.cluster.network)
        if collector is not None and collector.recorder is not None:
            collector.recorder.capture(f"invariant:{invariant}", detail)

    # -- periodic / final checks ---------------------------------------------

    def _live_active_joshuas(self) -> dict[str, "JoshuaServer"]:
        out = {}
        for head in self.stack.live_heads():
            node = self.stack.cluster.node(head)
            if "joshua" in node.daemons:
                joshua = self.stack.joshua(head)
                if joshua.running and joshua.active:
                    out[head] = joshua
        return out

    def _check_delivery_queue(self) -> None:
        """GC liveness: protocol payload state stays bounded on live heads
        (checked per shard group — one shard's backlog must not hide
        behind its siblings' idle queues)."""
        for head, joshua in self._live_active_joshuas().items():
            for replica in joshua.shards:
                count = replica.group.queue.payload_count()
                if count > QUEUE_BOUND:
                    where = (
                        head if joshua.nshards == 1
                        else f"{head} shard {replica.index}"
                    )
                    self._violate(
                        "bounded-delivery-queue",
                        f"{where} holds {count} payloads (> {QUEUE_BOUND})",
                    )

    def sampler(self, interval: float = 1.0):
        """Kernel process: run the periodic checks every *interval* seconds."""
        while True:
            yield self.kernel.timeout(interval)
            self._check_delivery_queue()

    def final_check(self) -> list[Violation]:
        """End-of-run checks, after faults are healed and traffic quiesced."""
        self.contract.close()
        self._check_delivery_queue()
        self._check_exactly_once_total()
        tables = {
            head: {job.job_id: (job.spec.name, job.state.value)
                   for job in self.stack.pbs(head).jobs}
            for head in self._live_active_joshuas()
        }
        findings, exempted = self.history.judge(tables)
        for rule, detail in findings:
            self._violate(rule, detail)
        self.exempted.extend(
            Violation(rule, self.kernel.now, detail) for rule, detail in exempted
        )
        return self.violations

    def _total_revocations(self) -> int:
        live = sum(
            j.stats.get("revocations", 0) for j in self._tapped_joshua.values()
        )
        return live + self._dead_revocations

    def _check_exactly_once_total(self) -> None:
        extra = sum(n - 1 for n in self.launches.values() if n > 1)
        revocations = self._total_revocations()
        if extra > revocations:
            repeats = {j: n for j, n in self.launches.items() if n > 1}
            self._violate(
                "exactly-once-launch",
                f"{extra} extra launch(es) {repeats} but only "
                f"{revocations} revocation(s) to justify them",
            )
