"""Chaos runs: a JOSHUA stack under a fault schedule with live invariants.

:func:`run_chaos` is the one-call harness behind ``repro chaos run``: build
a cluster and JOSHUA stack, attach the :class:`~repro.faults.invariants.
InvariantSuite`, drive a workload of ``jsub`` submissions, each followed by
by-id ``jstat``s and, for every other running job, a ``jdel``, while a
:class:`~repro.faults.injector.FaultInjector` executes the schedule, then
heal everything, let the system quiesce, and run the final checks.

:func:`soak` repeats that with per-run seeds derived from a master seed,
alternating the ordering engine, so ``repro chaos soak --seed 0 --runs 20``
is a deterministic regression battery; any failing run reports its own
seed + schedule JSON for replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster.cluster import Cluster
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantSuite, Violation
from repro.faults.schedule import FaultSchedule, random_schedule
from repro.gcs.config import GroupConfig
from repro.joshua.deploy import build_joshua_stack
from repro.joshua.shard import queue_for_shard
from repro.joshua.wire import JStatResp
from repro.obs.collector import attach_collector
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import attach_recorder
from repro.obs.timeseries import attach_timeseries
from repro.rpc import TimeoutRecord, rpc_state
from repro.util.errors import ClusterError, NoActiveHeadError, PBSError

__all__ = ["CHAOS_GROUP", "ChaosReport", "run_chaos", "soak"]

#: Group timing for chaos runs: quick failure detection so crash scenarios
#: resolve within the run, and a short GC sweep so the bounded-queue
#: invariant actually bites within a 30-second scenario.
CHAOS_GROUP = GroupConfig(
    heartbeat_interval=0.1,
    suspect_timeout=0.6,
    flush_timeout=1.0,
    retransmit_interval=0.05,
    gc_interval=2.0,
)

#: Calm after the last fault is healed, before the final invariant checks.
QUIESCE_S = 15.0
#: How long after its ack a job is first read by id. It is deleted only if
#: that read finds it running: a job still queued may be inside its
#: launch's prologue, where a ``jdel`` takes the queued-job path and the
#: node is never freed (ROADMAP item 12).
FOLLOW_UP_S = 0.5


@dataclass
class ChaosReport:
    """Outcome of one chaos run."""

    seed: int
    ordering: str
    schedule: FaultSchedule
    events_applied: list[tuple[float, str]]
    jobs_submitted: int
    #: Distinct jobs a mom reported finished (run out or killed).
    jobs_completed: int
    violations: list[Violation] = field(default_factory=list)
    #: What the client-history check exempted rather than passed: acks of
    #: a head a partition heal later demoted (PROTOCOLS.md §4.1).
    exempted: list[Violation] = field(default_factory=list)
    #: Every RPC attempt chain that exhausted its retries during the run,
    #: with destination, request type, and attempt count (from the
    #: simulation-wide :class:`~repro.rpc.RpcState` timeout log). Expected
    #: while heads are down; in a *failed* run they show which dst/request
    #: pairs went dark around the violation.
    rpc_timeouts: list[TimeoutRecord] = field(default_factory=list)
    #: Metrics accumulated by the run's trace collector (per-request-type
    #: RPC latency/retry histograms, GCS ordering overhead, job phases).
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Structured log records of the run (``SimLogger.to_dicts`` form) —
    #: violations are logged under source ``"chaos"`` so failure reports
    #: and trace spans share one machine-readable stream.
    log_records: list[dict] = field(default_factory=list)
    #: Ordering-layer shard count the stack ran with (1 = the paper's
    #: single group).
    shards: int = 1
    #: Postmortem bundles the flight recorder captured (invariant
    #: violations, sanitizer findings, exhausted RPC conversations) —
    #: each a causally merged snapshot of every node's last-K ring.
    postmortems: list[dict] = field(default_factory=list)
    #: Per-window time-series samples (``type="timeseries"`` records).
    timeseries: list[dict] = field(default_factory=list)
    #: Per-message-type byte ledgers from the network fabric.
    wire_bytes_by_type: dict = field(default_factory=dict)
    offered_bytes_by_type: dict = field(default_factory=dict)
    #: Read-path workload share (0 = no gateway read sessions) and
    #: its outcome split (reads that completed locally / fell back to the
    #: ordered stream / found no head at all).
    read_mix: float = 0.0
    reads_issued: int = 0
    reads_local: int = 0
    reads_fallback: int = 0
    reads_failed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        sharding = f" shards={self.shards}" if self.shards > 1 else ""
        reads = (
            f" reads={self.reads_local}L/{self.reads_fallback}F/"
            f"{self.reads_failed}X of {self.reads_issued}"
            if self.read_mix > 0 else ""
        )
        exempted = f" exempted={len(self.exempted)}" if self.exempted else ""
        return (
            f"seed={self.seed} ordering={self.ordering}{sharding} "
            f"faults={len(self.schedule.events)} "
            f"jobs={self.jobs_completed}/{self.jobs_submitted}{reads}"
            f"{exempted} {status}"
        )


def run_chaos(
    schedule: FaultSchedule | None = None,
    *,
    seed: int = 0,
    heads: int = 3,
    computes: int = 2,
    jobs: int = 6,
    duration: float = 30.0,
    ordering: str = "sequencer",
    intensity: int = 3,
    shards: int = 1,
    read_mix: float = 0.0,
    registry: MetricsRegistry | None = None,
) -> ChaosReport:
    """Run one chaos scenario and return its report.

    With no *schedule*, a random one is generated from *seed* (so the run
    is replayable from the seed alone). The workload spreads *jobs*
    submissions over the first ~60 % of *duration* with walltimes short
    enough to finish during the run. ``FOLLOW_UP_S`` after its ack each job
    is read by id; every other job that read finds running is deleted and
    read again, and every job is read once more after its walltime. After
    *duration* the injector heals every outstanding fault and the system
    gets ``QUIESCE_S`` seconds of calm before the final invariant checks;
    the suite's client history judges every one of these operations.

    With ``read_mix`` > 0 a second workload runs alongside: gateway
    sessions (:mod:`repro.joshua.gateway`) that submit tracked jobs and
    issue read-your-writes ``jstat`` queries, sized so reads make up
    roughly that fraction of all client operations. Each completed read
    names its session to the suite
    (:meth:`~repro.faults.invariants.InvariantSuite.observe_read`) for the
    session guarantees.
    """
    if not 0.0 <= read_mix < 1.0:
        raise ClusterError("read_mix must be in [0, 1)")
    # Batched sequencing is the interesting configuration for the stale-
    # flusher class of bug; keep a small batch delay on by default. DATA
    # batching likewise stays on so every chaos run exercises the Nagle
    # window across crashes, partitions and view changes.
    batch_delay = 0.005 if ordering == "sequencer" else 0.0
    group = replace(
        CHAOS_GROUP,
        ordering=ordering,
        sequencer_batch_delay=batch_delay,
        data_batch_delay=0.005,
        data_batch_min_delay=0.001,
    )
    cluster = Cluster(
        head_count=heads, compute_count=computes, login_node=True, seed=seed
    )
    stack = build_joshua_stack(cluster, group_config=group, shards=shards)
    collector = attach_collector(cluster.network, registry=registry)
    # Flight recorder + time-series observatory: passive (the obs-passivity
    # suite holds both to bit-identical wire traces), so every chaos run
    # carries its own black box and time-resolved metrics.
    flight = attach_recorder(cluster.network)
    sampler = attach_timeseries(cluster.network)
    cluster.run(until=2.0)  # let the group form before faults begin

    suite = InvariantSuite(stack).attach()
    if schedule is None:
        schedule = random_schedule(
            seed,
            heads=stack.head_names,
            computes=[c.name for c in cluster.computes],
            duration=duration,
            intensity=intensity,
            ordering=ordering,
        )
    injector = FaultInjector(cluster)
    injector.apply(schedule)

    client = stack.client("login")
    submitted = 0
    failed_submits = 0

    def follow_up(i, job_id, walltime):
        """Read the acknowledged job by id; delete every other one the read
        finds running, and read it again after its walltime."""
        kernel = cluster.kernel
        yield kernel.timeout(FOLLOW_UP_S)
        try:
            rows = yield from client.jstat(job_id)
            if i % 2 and rows[0].state == "R":
                yield from client.jdel(job_id)
                yield from client.jstat(job_id)
        except (NoActiveHeadError, PBSError):
            pass  # an outage, or a finished job a head no longer knows
        yield kernel.timeout(walltime)
        try:
            yield from client.jstat(job_id)
        except (NoActiveHeadError, PBSError):
            pass

    def workload():
        nonlocal submitted, failed_submits
        rng = cluster.kernel.streams.get("chaos-workload")
        window = 0.6 * duration
        for i in range(jobs):
            yield cluster.kernel.timeout(window / jobs)
            walltime = rng.uniform(1.0, 3.0)
            # Sharded runs round-robin the submissions across every
            # shard's queue namespace so each ordering group sees traffic;
            # single-shard runs keep the historical default queue.
            extra = (
                {"queue": queue_for_shard(i % shards, shards)}
                if shards > 1 else {}
            )
            try:
                job_id = yield from client.jsub(
                    name=f"chaos-{i}", walltime=walltime, **extra)
                submitted += 1
            except NoActiveHeadError:
                # Every head unreachable right now — a client-visible outage
                # is allowed; losing an *accepted* job is not.
                failed_submits += 1
                continue
            cluster.kernel.spawn(follow_up(i, job_id, walltime),
                                 name=f"chaos-follow-up-{i}")

    reads = (
        int(round(jobs * read_mix / (1.0 - read_mix))) if read_mix > 0 else 0
    )
    read_stats = {"issued": 0, "local": 0, "fallback": 0, "failed": 0}

    def read_workload():
        nonlocal submitted
        rng = cluster.kernel.streams.get("chaos-reads")
        gateway = stack.gateway(consistency="ryw")
        nreaders = min(3, reads)
        sessions = [
            gateway.session("login", f"reader{r}") for r in range(nreaders)
        ]
        window = 0.6 * duration
        # Sessions whose one floor-establishing write was acknowledged.
        wrote: set[str] = set()
        for i in range(reads):
            yield cluster.kernel.timeout(window / reads)
            session = sessions[i % nreaders]
            client = session.client
            try:
                if session.client_id not in wrote:
                    # Establish this reader's floors first: a tracked
                    # write of its own is what makes RYW falsifiable.
                    walltime = rng.uniform(1.0, 3.0)
                    yield from session.jsub(
                        name=f"chaos-reader{i}", walltime=walltime
                    )
                    submitted += 1
                    wrote.add(session.client_id)
                read_stats["issued"] += 1
                yield from session.jstat()  # id-less: gates every shard
                response = client.last_stat_response
                if isinstance(response, JStatResp):
                    read_stats["local"] += 1
                else:
                    read_stats["fallback"] += 1
                suite.observe_read(
                    session.client_id, dict(client.last_write_seq), response
                )
            except NoActiveHeadError:
                read_stats["failed"] += 1

    cluster.kernel.spawn(workload(), name="chaos-workload")
    if reads:
        cluster.kernel.spawn(read_workload(), name="chaos-read-workload")
    cluster.kernel.spawn(suite.sampler(1.0), name="invariant-sampler")
    cluster.run(until=2.0 + max(duration, schedule.horizon()))
    injector.heal_all()
    cluster.run(until=cluster.kernel.now + QUIESCE_S)
    suite.final_check()
    for violation in suite.violations:
        cluster.kernel.log.error("chaos", str(violation), seed=seed,
                                 ordering=ordering)

    return ChaosReport(
        seed=seed,
        ordering=ordering,
        schedule=schedule,
        shards=shards,
        events_applied=list(injector.log),
        jobs_submitted=submitted,
        jobs_completed=len(suite.history.obits),
        violations=list(suite.violations),
        exempted=list(suite.exempted),
        rpc_timeouts=list(rpc_state(cluster.network).timeouts),
        registry=collector.registry,
        log_records=cluster.kernel.log.to_dicts(),
        postmortems=list(flight.bundles),
        timeseries=sampler.records(),
        wire_bytes_by_type=dict(cluster.network.wire_bytes_by_type),
        offered_bytes_by_type=dict(cluster.network.offered_bytes_by_type),
        read_mix=read_mix,
        reads_issued=read_stats["issued"],
        reads_local=read_stats["local"],
        reads_fallback=read_stats["fallback"],
        reads_failed=read_stats["failed"],
    )


def soak(
    seed: int = 0,
    runs: int = 20,
    *,
    heads: int = 3,
    computes: int = 2,
    jobs: int = 6,
    duration: float = 30.0,
    intensity: int = 3,
    read_mix: float = 0.0,
) -> list[ChaosReport]:
    """Run *runs* chaos scenarios with per-run seeds derived from *seed*,
    alternating the ordering engine. Returns every report; callers check
    ``all(r.ok for r in reports)``."""
    reports = []
    for i in range(runs):
        run_seed = seed * 1_000_003 + i
        ordering = "sequencer" if i % 2 == 0 else "token"
        reports.append(
            run_chaos(
                seed=run_seed,
                heads=heads,
                computes=computes,
                jobs=jobs,
                duration=duration,
                ordering=ordering,
                intensity=intensity,
                read_mix=read_mix,
            )
        )
    return reports
