"""Runtime invariant checkers for chaos runs.

The paper's guarantees are behavioural, so the chaos harness checks them
*while* a scenario runs rather than eyeballing end state. The suite taps the
live objects non-invasively — it wraps the GCS delivery callback and the
mom's job-start/done hooks, preserving whatever callback was installed (the
jmutex notifiers use the same single-slot hooks) — and re-taps after node
restarts via the node lifecycle observers.

Checked invariants:

* **the group's contract** — every head's delivery and view callbacks feed
  one :class:`~repro.gcs.contract.GroupContract` per suite, the same
  checker the GCS tests run over bare members; its findings are wrapped
  as violations named by their rule (``gap-free``, ``total-order``,
  ``virtual-synchrony``, ``safe-delivery``, ``self-delivery``). Views are
  keyed by ``(view_id, member set)`` so two partition sides that reuse a
  numeric view id are not false-compared.
* **exactly-once launch** — no job ever has two *real* executions in flight
  at once (hard violation at the moment it happens), and across the whole
  run a job gains extra launches only if launch-mutex revocations
  (deliberate requeues of a dead winner's claim) account for them.
* **no lost command** — at the end of the run, every ``jsub`` that was
  accepted (a result exists in a surviving head's replicated log) is
  present in the PBS queue of every *veteran* active head. Veterans are
  heads that neither crashed nor were ever excluded from a view: a
  restarted head carries only post-rejoin history under replay transfer,
  and so does a head excluded by false suspicion — both heal routes bump
  its member's ``rejoins``, so the engine demotes it (``active`` drops)
  and it resyncs through a marker like any joiner. Both are legitimate
  holes the paper's fail-stop model does not cover. Divergent job ids
  for one command uuid are flagged too.
* **bounded delivery queue** — ``DeliveryQueue.payload_count()`` stays under
  ``QUEUE_BOUND`` on every live head (GC liveness: stability-based garbage
  collection must keep protocol state finite; see the paper's Transis
  crash post-mortem).
* **read-your-writes / monotonic reads** — fed by the read workload via
  :meth:`InvariantSuite.observe_read`: a local-replica ``jstat`` answered
  under ``ryw`` must carry an ``as_of_seq`` at or above every floor the
  client presented (its own writes' commit positions — the staleness
  contract of PROTOCOLS.md §12), and successive local reads by one client
  against one head must never see a shard's position go backwards.
* **tracked write stamped** — fed via :meth:`InvariantSuite.observe_write`:
  every acknowledged ``track_seq`` write raises one of its client's floors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.gcs.contract import GroupContract
from repro.joshua.wire import JStatResp
from repro.obs.collector import collector_of
from repro.pbs.job import JobState

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
        #: Heads that crashed at least once (excluded from the veteran check).
        self.restarted_heads: set[str] = set()
        #: Heads some view left out while they were up (false suspicion);
        #: they come back demoted and resync, so they leave the veteran set too.
        self.excluded_heads: set[str] = set()
        #: Live joshua daemons we tapped, by head (kept to read stats at crash).
        self._tapped_joshua: dict[str, "JoshuaServer"] = {}
        self._observing: set[str] = set()
        #: (client, head, shard) -> highest replica position a local read
        #: reported — the monotonic-reads watermark.
        self._read_positions: dict[tuple, int] = {}
        #: Local reads fed through :meth:`observe_read` (reporting aid).
        self.reads_observed = 0

    # -- wiring --------------------------------------------------------------

    def attach(self) -> "InvariantSuite":
        """Tap the stack. Call *after* the group has formed its full view —
        the exclusion tracker reads every later view shrink as a suspicion."""
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
                self.restarted_heads.add(node.name)
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
            inner_view = member.on_view

            def view_recorder(view, inner_view=inner_view) -> None:
                self._record_view(head, view)
                inner_view(view)

            member.on_view = view_recorder

    def _tap_mom(self, mom: "PBSMom") -> None:
        inner_start = mom.on_job_start
        inner_done = mom.on_job_done

        def on_start(req) -> None:
            self._record_launch(mom.node.name, req.job_id)
            if inner_start is not None:
                inner_start(req)

        def on_done(obit) -> None:
            self._in_flight[obit.job_id] = self._in_flight.get(obit.job_id, 1) - 1
            if inner_done is not None:
                inner_done(obit)

        mom.on_job_start = on_start
        mom.on_job_done = on_done

    # -- live recorders ------------------------------------------------------

    def _record_view(self, observer: str, view) -> None:
        """Any configured head a view leaves out *while it is up* was
        suspected (rightly or falsely); either way it may now miss
        deliveries, so it is no longer a veteran."""
        members = {a.node for a in view.members}
        for h in self.stack.head_names:
            if h == observer or h in members:
                continue
            if self.stack.cluster.node(h).is_up:
                self.excluded_heads.add(h)

    def _record_launch(self, compute: str, job_id: str) -> None:
        self.launches[job_id] = self.launches.get(job_id, 0) + 1
        self._in_flight[job_id] = self._in_flight.get(job_id, 0) + 1
        if self._in_flight[job_id] > 1:
            self._violate(
                "exactly-once-launch",
                f"{job_id} has {self._in_flight[job_id]} concurrent real "
                f"executions (latest on {compute})",
            )

    def observe_write(self, client: str, floors_before: dict, floors_after: dict):
        """Check one acknowledged tracked write: a stamp is a commit
        position and positions only grow, so an ack that raised no shard's
        floor came back bare — and the ``ryw`` reads after it are ungated."""
        if not any(s > floors_before.get(k, 0) for k, s in floors_after.items()):
            self._violate(
                "tracked-write-stamped",
                f"{client}'s tracked write was acknowledged without raising "
                f"a floor (still {sorted(floors_after.items())})",
            )

    def observe_read(self, client: str, floors: dict, response) -> None:
        """Check one completed ``jstat`` against the read-path contract.

        *floors* is the per-shard ``min_seq`` map the client presented,
        restricted to the shards the read gates on — every shard for an
        id-less query, only the owning shard for a targeted one (empty
        for non-``ryw`` reads).
        Ordered answers (plain ``StatResp``) are serialised after every
        committed write, so only local-replica answers
        (:class:`~repro.joshua.wire.JStatResp`) are checked: the reported
        ``as_of_seq`` must cover every floor, and must never go backwards
        for one client against one head.
        """
        if not isinstance(response, JStatResp):
            return
        self.reads_observed += 1
        as_of = dict(response.as_of_seq)
        head = response.node
        for shard, floor in sorted(floors.items()):
            position = as_of.get(shard)
            if position is None:
                self._violate(
                    "read-your-writes",
                    f"{client} presented floor {floor} for shard {shard} but "
                    f"{head} answered locally without that shard's position",
                )
            elif position < floor:
                self._violate(
                    "read-your-writes",
                    f"{client} read {head} at shard {shard} position "
                    f"{position}, below its own write floor {floor}",
                )
        for shard, position in sorted(as_of.items()):
            key = (client, head, shard)
            seen = self._read_positions.get(key, -1)
            if position < seen:
                self._violate(
                    "monotonic-reads",
                    f"{client} read {head} shard {shard} at position "
                    f"{position} after having seen {seen}",
                )
            else:
                self._read_positions[key] = position

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
        self._check_no_lost_commands()
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

    def _check_no_lost_commands(self) -> None:
        veterans = {
            head: joshua
            for head, joshua in self._live_active_joshuas().items()
            if head not in self.restarted_heads
            and head not in self.excluded_heads
        }
        if not veterans:
            return
        # Accepted jsubs: uuid -> job id, from every veteran's replicated log.
        accepted: dict[str, str] = {}
        deleted: set[str] = set()
        for head, joshua in veterans.items():
            for command in joshua.command_log:
                if command.kind == "jdel":
                    deleted.add(command.payload)
                    continue
                if command.kind != "jsub":
                    continue
                result = joshua.results.get(command.uuid)
                job_id = getattr(result, "job_id", None)
                if job_id is None:
                    continue
                known = accepted.setdefault(command.uuid, job_id)
                if known != job_id:
                    self._violate(
                        "no-lost-command",
                        f"command {command.uuid} became {known} on one head "
                        f"and {job_id} on {head}",
                    )
        expected = {j for j in accepted.values() if j not in deleted}
        for head in veterans:
            queue = self.stack.pbs(head).jobs
            missing = sorted(j for j in expected if j not in queue)
            if missing:
                self._violate(
                    "no-lost-command",
                    f"{head} lost accepted job(s) {missing}",
                )

    # -- reporting helpers ---------------------------------------------------

    def completed_jobs(self) -> int:
        """COMPLETE jobs on the best-informed veteran head (reporting only)."""
        best = 0
        for head, _ in self._live_active_joshuas().items():
            queue = self.stack.pbs(head).jobs
            best = max(
                best, sum(1 for job in queue if job.state is JobState.COMPLETE)
            )
        return best
