"""The four benchmark workloads: seeded input plans and scenario drivers.

Each workload is two functions. ``plan_*`` turns ``(seed, scale)`` into a
plain-data plan — client attribution, due times, walltimes, job names — and
is the only place the seed is read; the program under test sees the plan,
never the seed (the cluster's own RNG, which models message jitter, is
seeded from the plan too). ``run_*`` builds the stack, replays the plan
and returns raw observations; every metric is computed from those by
``measure.py``.

Why these four (one sentence each is also in ``BENCHMARK.json``):

``submit-deep``
    The paper-faithful write path (unbatched, one shard) with a job table
    that grows to hundreds of entries: every commit pays a full ORDER+SAFE
    round and a whole-table ``PBSServer._persist``, so ``cluster.storage``
    and ``net.codec`` dominate host time and batching, reads, scheduler
    and moms idle.
``submit-wide``
    The same write layers driven the other way: many outstanding commands
    on the batched, two-shard path plus a second mutating command, so a
    gain bought for the unbatched path at the batched path's expense shows.
``read-mix``
    Reads bypass the ordered stream and persistence: ``rpc``, ``net.codec``,
    the ``joshua`` read path and the sim kernel do the work, so a
    write-path optimisation must predict "no change" here.
``failover``
    The only workload where membership, flush, failure detection, state
    transfer, the launch mutex, moms, scheduler and ``obs`` do real work,
    and the one that yields outage time and the correctness contract
    under faults.

All load is generated inside the one simulator process, so an open-loop
request is issued at exactly its due time: generator lateness is zero by
construction (``measure.py`` still reports it).
"""

from __future__ import annotations

import copy
import dataclasses
import random
import time

from repro.bench.experiments.throughput import BATCHED_GROUP_CONFIG
from repro.cluster.cluster import Cluster
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantSuite
from repro.faults.runner import CHAOS_GROUP
from repro.faults.schedule import FaultSchedule
from repro.joshua.deploy import build_joshua_stack
from repro.joshua.shard import queue_for_shard
from repro.obs.collector import attach_collector
from repro.obs.recorder import attach_recorder
from repro.obs.timeseries import attach_timeseries
from repro.pbs.job import JobState
from repro.util.errors import NoActiveHeadError, PBSError

#: Sim-seconds per timed slice (a few hundred slices, ~10 ms of host time
#: each). The simulation is deterministic, so slice *i* does identical work
#: in every repeat of one (workload, seed); the parent keeps the per-slice
#: minimum across repeats.
SLICES = {"submit-deep": 0.05, "submit-wide": 0.05, "read-mix": 0.05,
          "failover": 0.25}
#: Walltime of jobs that must never finish (the bench measures the command
#: plane); anything shorter is "due to finish" for ``jobs_done_share``.
FOREVER = 1e5
#: Closed-loop clients start this far apart (sim-seconds). Fixed, not
#: seeded: commit latency is quantised by the stability-ack cycle, so the
#: clients phase-lock, and a random offset would pick the mode (228 or 303
#: sim-ms on submit-deep) instead of sampling within one.
CLIENT_STAGGER = 0.05
#: Group formation time before the measured phase starts.
FORMATION = 2.0
#: Client behaviour when every head refuses a command (sim-seconds).
RETRY_EVERY = 0.5
GIVE_UP_AFTER = 10.0
#: Latency limits of ``slo_met_share`` (sim-seconds).
SLO = {"jsub": 1.0, "jdel": 1.0, "jstat": 0.100}

#: Full-scale sizes; ``--quick`` runs about a fifth of each.
SCALES = {
    "full": {
        "deep_per_client": 60,
        "wide_rounds": 5,
        "read_latency_s": 16.0, "read_capacity_s": 8.0,
        "failover_s": 100.0,
    },
    "quick": {
        "deep_per_client": 12,
        "wide_rounds": 1,
        "read_latency_s": 3.0, "read_capacity_s": 1.5,
        "failover_s": 40.0,
    },
}


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Op:
    """One client operation as the workload generator saw it (sim time,
    relative to the start of the measured phase)."""

    kind: str          # jsub / jdel / jstat
    phase: str         # "main", or "latency" / "capacity" on read-mix
    due: float         # scheduled send time (open loop) or actual (closed)
    start: float       # when the generator issued it
    end: float = 0.0   # reply or failure time
    ok: bool = False
    name: str | None = None      # job name (jsub)
    job_id: str | None = None    # acked id (jsub) / target (jdel, jstat)


class Run:
    """Everything one repeat observed; ``measure.py`` turns it into metrics."""

    def __init__(self, workload: str, plan: dict):
        self.workload = workload
        self.plan = plan
        self.ops: list[Op] = []
        self.setup_cpu_s = 0.0
        self.slices: list[float] = []
        #: ``reference()`` before each slice.
        self.refs: list[float] = []
        self.sim_duration = 0.0
        self.events = 0
        self.wire_bytes = 0
        self.wire_by_type: dict[str, int] = {}
        self.net_stats: dict[str, int] = {}
        self.capacity_window = (0.0, 0.0)
        #: Sim-seconds the commit rate is taken over; ``None`` (closed loop)
        #: means up to the last commit's reply.
        self.commit_span: float | None = None
        #: job id -> completions / launches seen at the moms.
        self.mom_done: dict[str, int] = {}
        self.mom_launched: dict[str, int] = {}
        #: (head, restart time, first time seen active or None).
        self.rejoins: list[list] = []
        self.violations: list[str] = []
        self.gate_errors: list[str] = []
        self.replica_complete = 0
        #: (acked job, in-service head) pairs the gate looked at, and those
        #: where a restarted head holds the job under another name or lacks
        #: it while unfinished.
        self.replica_pairs = 0
        self.replica_divergent = 0
        self.gateway_stats: dict[str, int] = {}
        #: Commands re-issued because every head refused them.
        self.client_retries = 0

    def short_jobs(self) -> list[str]:
        """Ids of acked jobs that are due to finish within the run."""
        walltimes = self.plan["walltimes"]
        return [op.job_id for op in self.ops
                if op.kind == "jsub" and op.ok
                and walltimes.get(op.name, FOREVER) < FOREVER]


# ---------------------------------------------------------------------------
# shared driver pieces
# ---------------------------------------------------------------------------


_REFERENCE_TABLE = [
    {"id": i, "name": f"job{i}", "state": ("Q", i), "spec": {"walltime": 1.5 * i}}
    for i in range(12)
]


def reference() -> float:
    """CPU seconds this box needs *right now* for a fixed piece of work
    (arithmetic plus a small deep copy, about 0.12 ms uncontended).

    Host speed on a shared box drifts by ±20 % with a time scale of about a
    second. The loop runs before every timed slice, so the parent can
    divide each slice by how slow the box was at that moment."""
    started = time.process_time()
    total = 0
    for i in range(1500):
        total += i * i % 7
    copy.deepcopy(_REFERENCE_TABLE)
    return time.process_time() - started


class _Harness:
    """Stack + clock bookkeeping shared by the four drivers."""

    def __init__(self, run: Run, cluster: Cluster, stack, tracer=None):
        self.run = run
        self.cluster = cluster
        self.kernel = cluster.kernel
        self.stack = stack
        self.tracer = tracer
        self.t0 = 0.0
        self._restart_open: dict[str, list] = {}
        self._tap_moms()
        for head in stack.head_names:
            cluster.node(head).observe(self._on_lifecycle)

    # -- passive taps --------------------------------------------------------

    def _tap_moms(self) -> None:
        """Job launches and completions come from the moms (the replica
        tables of restarted heads only hold post-rejoin history)."""
        run = self.run
        for compute in self.cluster.computes:
            mom = self.stack.mom(compute.name)
            inner_start, inner_done = mom.on_job_start, mom.on_job_done

            def on_start(req, inner=inner_start):
                run.mom_launched[req.job_id] = run.mom_launched.get(req.job_id, 0) + 1
                if inner is not None:
                    inner(req)

            def on_done(obit, inner=inner_done):
                run.mom_done[obit.job_id] = run.mom_done.get(obit.job_id, 0) + 1
                if inner is not None:
                    inner(obit)

            mom.on_job_start, mom.on_job_done = on_start, on_done

    def _on_lifecycle(self, node, event: str) -> None:
        if event == "restart":
            record = [node.name, self.kernel.now - self.t0, None]
            self.run.rejoins.append(record)
            self._restart_open[node.name] = record

    def _in_service(self, head: str) -> bool:
        node = self.cluster.node(head)
        if not node.is_up or "joshua" not in node.daemons:
            return False
        joshua = node.daemon("joshua")
        return joshua.running and joshua.active

    def _note_rejoins(self) -> None:
        """Stamp restarted heads that are back in service (slice resolution)."""
        for head in [h for h in self._restart_open if self._in_service(h)]:
            self._restart_open.pop(head)[2] = self.kernel.now - self.t0

    # -- the measured phase --------------------------------------------------

    def begin(self) -> None:
        """End of set-up: everything after this is the measured phase."""
        run = self.run
        self.t0 = self.kernel.now
        self._events0 = self.kernel.processed_events
        network = self.cluster.network
        self._net0 = dict(network.stats)
        self._types0 = dict(network.wire_bytes_by_type)
        if self.tracer is not None:
            self.tracer.begin_phase(network)
        run.setup_cpu_s = time.process_time()

    def advance(self, *, until: float | None = None, done=None) -> None:
        """Run the kernel in fixed sim-time slices, timing each, until sim time
        ``t0 + until`` or until ``done()`` holds at a slice boundary."""
        kernel, run = self.kernel, self.run
        step = SLICES[run.workload]
        index = round((kernel.now - self.t0) / step)
        while True:
            index += 1
            target = self.t0 + index * step
            run.refs.append(reference())
            cpu0 = time.process_time()
            kernel.run(until=target)
            run.slices.append(time.process_time() - cpu0)
            self._note_rejoins()
            if until is not None and target >= self.t0 + until - 1e-9:
                return
            if done is not None and done():
                return

    def end(self) -> None:
        run = self.run
        network = self.cluster.network
        if self.tracer is not None:
            self.tracer.end_phase()
        run.sim_duration = self.kernel.now - self.t0
        run.events = self.kernel.processed_events - self._events0
        run.net_stats = {
            key: value - self._net0.get(key, 0)
            for key, value in sorted(network.stats.items())
        }
        run.wire_bytes = run.net_stats["bytes_wire"]
        run.wire_by_type = {
            kind: count - self._types0.get(kind, 0)
            for kind, count in sorted(network.wire_bytes_by_type.items())
            if count - self._types0.get(kind, 0)
        }

    # -- client operations ---------------------------------------------------

    def op(self, kind: str, phase: str, due: float, call, **fields):
        """Issue one client command and record its outcome.

        *call* builds the command's generator. A command every head
        refuses (``NoActiveHeadError``: all down or still joining) is
        re-issued every ``RETRY_EVERY`` sim-s, as a user's shell loop
        would, and only counts as failed after ``GIVE_UP_AFTER``."""
        record = Op(kind, phase, due, self.kernel.now - self.t0, **fields)
        self.run.ops.append(record)
        while True:
            try:
                result = yield from call()
            except NoActiveHeadError:
                record.end = self.kernel.now - self.t0
                if record.end - due >= GIVE_UP_AFTER:
                    return None
                self.run.client_retries += 1
                yield self.kernel.timeout(RETRY_EVERY)
                continue
            except PBSError:
                record.end = self.kernel.now - self.t0
                return None
            break
        record.end = self.kernel.now - self.t0
        record.ok = True
        if kind == "jsub":
            record.job_id = result
        return result

    def at(self, due: float):
        """Event that fires at measured-phase time *due*."""
        return self.kernel.timeout(max(0.0, self.t0 + due - self.kernel.now))

    # -- the correctness gate (child side) -----------------------------------

    def gate(self, also_acked: dict | None = None) -> None:
        """Every acked ``jsub`` is in every in-service head's PBS table
        under the same id; moms launched each job at most once (a relaunch
        needs a launch-mutex revocation to justify it).

        That is the contract for *veteran* heads. A head that restarted
        holds what state transfer carried, which the paper's fail-stop
        model does not promise to be complete (``InvariantSuite`` exempts
        such heads too): its differences do not fail the run but are
        reported — ``replica_agree_share`` is a bounded end-to-end metric,
        so a change that makes rejoin divergence worse is rejected."""
        run, stack = self.run, self.stack
        restarted = {record[0] for record in run.rejoins}
        acked = dict(also_acked or {})
        acked.update((op.job_id, op.name) for op in run.ops
                     if op.kind == "jsub" and op.ok)
        heads = [h for h in stack.head_names if self._in_service(h)]
        if not heads:
            run.gate_errors.append("no head in service at the end of the run")
        for head in heads:
            table = stack.pbs(head).jobs
            for job_id, name in sorted(acked.items()):
                if job_id in table:
                    held = table.get(job_id).spec.name
                    problem = (None if held == name else
                               f"{head}: {job_id} is {held!r}, client was "
                               f"acked for {name!r}")
                elif head in restarted and run.mom_done.get(job_id):
                    problem = None  # finished before the transfer: not carried
                else:
                    problem = f"{head}: acked {job_id} missing"
                run.replica_pairs += 1
                if problem is None:
                    continue
                if head in restarted:
                    run.replica_divergent += 1
                else:
                    run.gate_errors.append(problem)
        extra = sum(n - 1 for n in run.mom_launched.values() if n > 1)
        revocations = sum(
            stack.joshua(h).stats.get("revocations", 0)
            for h in stack.live_heads()
        )
        if extra > revocations:
            run.gate_errors.append(
                f"{extra} extra job launch(es) but {revocations} revocation(s)")
        # Replica-side completion (what InvariantSuite.completed_jobs reads):
        # COMPLETE short jobs on the best-informed in-service head.
        short = run.short_jobs()
        for head in heads:
            table = stack.pbs(head).jobs
            count = sum(
                1 for job_id in short
                if job_id in table
                and table.get(job_id).state is JobState.COMPLETE
            )
            run.replica_complete = max(run.replica_complete, count)


def _name(prefix: str, index: int, rng: random.Random) -> str:
    # Fixed width: job names are on the wire and charged by size.
    return f"{prefix}{index:04d}-{rng.randrange(1 << 16):04x}"


def _build(plan: dict, observers: bool, *, heads: int, group=None,
           shards: int = 1):
    cluster = Cluster(
        head_count=heads, compute_count=2, login_node=True, seed=plan["seed"]
    )
    kwargs = {} if group is None else {"group_config": group}
    stack = build_joshua_stack(cluster, shards=shards, **kwargs)
    if observers:
        # Attached exactly as repro.faults.runner.run_chaos does. Passive:
        # the parent checks sim metrics and the wire ledger are the same
        # with and without them.
        attach_collector(cluster.network)
        attach_recorder(cluster.network)
        attach_timeseries(cluster.network)
    return cluster, stack


def _run_closed_loop(harness: _Harness, client, plan: dict):
    """Measured phase of a closed-loop workload: one *client* process per
    plan entry, until all of them are done."""
    kernel = harness.kernel
    procs = [kernel.spawn(client(spec), name=f"client{i}")
             for i, spec in enumerate(plan["clients"])]
    harness.advance(done=lambda: not any(p.is_alive for p in procs))
    harness.end()
    harness.gate()
    return harness


# ---------------------------------------------------------------------------
# submit-deep
# ---------------------------------------------------------------------------


def plan_submit_deep(seed: int, scale: str) -> dict:
    rng = random.Random(f"submit-deep/{seed}")
    per_client = SCALES[scale]["deep_per_client"]
    heads = [0, 1, 2]
    rng.shuffle(heads)
    clients = []
    for c in range(4):
        clients.append({
            "prefer": f"head{heads[c % 3]}",
            "offset": CLIENT_STAGGER * c,
            "jobs": [_name(f"d{c}", j, rng) for j in range(per_client)],
        })
    return {"seed": seed, "clients": clients, "walltimes": {}}


def run_submit_deep(plan: dict, run: Run, tracer, observers):
    cluster, stack = _build(plan, observers, heads=3)
    harness = _Harness(run, cluster, stack, tracer)
    cluster.run(until=FORMATION)
    harness.begin()
    kernel = cluster.kernel

    def client(spec):
        session = stack.client("login", prefer=spec["prefer"], timeout=60.0)
        yield harness.at(spec["offset"])
        for name in spec["jobs"]:
            now = kernel.now - harness.t0
            yield from harness.op(
                "jsub", "main", now,
                lambda name=name: session.jsub(name=name, walltime=FOREVER),
                name=name)

    return _run_closed_loop(harness, client, plan)


# ---------------------------------------------------------------------------
# submit-wide
# ---------------------------------------------------------------------------


#: Commands each submit-wide client keeps outstanding per round.
WIDE_BURST = 2


def plan_submit_wide(seed: int, scale: str) -> dict:
    rng = random.Random(f"submit-wide/{seed}")
    rounds = SCALES[scale]["wide_rounds"]
    # Two clients on every (head, shard) pair, in a fixed order: the start
    # stagger follows the client index, so a shuffle would pick the mode.
    clients = []
    for c in range(16):
        clients.append({
            "prefer": f"head{c % 4}",
            "queue": queue_for_shard(c // 4 % 2, 2),
            "offset": CLIENT_STAGGER * c / 4,
            "bursts": [[_name(f"w{c:02d}", WIDE_BURST * j + b, rng)
                        for b in range(WIDE_BURST)] for j in range(rounds)],
        })
    return {"seed": seed, "clients": clients, "walltimes": {}}


def run_submit_wide(plan: dict, run: Run, tracer, observers):
    cluster, stack = _build(
        plan, observers, heads=4, group=BATCHED_GROUP_CONFIG, shards=2)
    harness = _Harness(run, cluster, stack, tracer)
    cluster.run(until=FORMATION)
    harness.begin()
    kernel = cluster.kernel

    def client(spec):
        session = stack.client("login", prefer=spec["prefer"], timeout=60.0)
        yield harness.at(spec["offset"])
        previous = []
        for burst in spec["bursts"]:
            # A shell loop of background commands: the whole burst, and the
            # deletion of the previous one, are outstanding at once.
            now = kernel.now - harness.t0
            subs = [
                kernel.spawn(harness.op(
                    "jsub", "main", now,
                    lambda name=name: session.jsub(
                        name=name, walltime=FOREVER, queue=spec["queue"]),
                    name=name))
                for name in burst
            ]
            dels = [
                kernel.spawn(harness.op(
                    "jdel", "main", now,
                    lambda job_id=job_id: session.jdel(job_id), job_id=job_id))
                for job_id in previous
            ]
            yield kernel.all_of(subs + dels)
            previous = [p.value for p in subs if p.value is not None]

    return _run_closed_loop(harness, client, plan)


# ---------------------------------------------------------------------------
# read-mix
# ---------------------------------------------------------------------------

READ_SESSIONS = 30
READ_LATENCY_RATE = 150.0
WRITE_RATE = 2.0
READ_CAPACITY_RATE = 320.0


def plan_read_mix(seed: int, scale: str) -> dict:
    rng = random.Random(f"read-mix/{seed}")
    latency_s = SCALES[scale]["read_latency_s"]
    capacity_s = SCALES[scale]["read_capacity_s"]
    requests = []

    def stratified(rate, start, length, phase, kind):
        """One request per session per period, at a seeded uniform offset
        inside the period: independent users who each poll at their own
        pace. The offered count is exact, so what a seed changes is who
        collides with whom, not how much load there is."""
        period = READ_SESSIONS / rate
        for k in range(int(round(length / period))):
            for c in range(READ_SESSIONS):
                due = start + (k + rng.random()) * period
                requests.append([due, c, kind, phase])

    stratified(READ_LATENCY_RATE, 0.0, latency_s, "latency", "jstat")
    for k in range(int(round(latency_s * WRITE_RATE))):
        requests.append([(k + rng.random()) / WRITE_RATE,
                         rng.randrange(READ_SESSIONS), "jsub", "latency"])
    stratified(READ_CAPACITY_RATE, latency_s, capacity_s, "capacity", "jstat")
    requests.sort(key=lambda r: r[0])
    warm = [_name(f"r{c:02d}", 0, rng) for c in range(READ_SESSIONS)]
    names = {i: _name("rw", i, rng)
             for i, request in enumerate(requests) if request[2] == "jsub"}
    return {"seed": seed, "requests": requests, "warm": warm, "names": names,
            "latency_s": latency_s, "capacity_s": capacity_s, "walltimes": {}}


def run_read_mix(plan: dict, run: Run, tracer, observers):
    cluster, stack = _build(plan, observers, heads=3)
    harness = _Harness(run, cluster, stack, tracer)
    gateway = stack.gateway(timeout=60.0, consistency="ryw")
    kernel = cluster.kernel
    cluster.run(until=FORMATION)
    sessions = [gateway.session("login", f"client{c}")
                for c in range(READ_SESSIONS)]
    last_job: dict[int, str] = {}

    # Set-up: every session gets one job of its own, so every measured read
    # is a by-id read-your-writes query of constant reply size.
    def warm(c):
        last_job[c] = yield from sessions[c].jsub(
            name=plan["warm"][c], walltime=FOREVER)

    for proc in [kernel.spawn(warm(c)) for c in range(READ_SESSIONS)]:
        cluster.run(until=proc)
    # The warm-up jobs were acked too; the gate covers them.
    warmed = {last_job[c]: plan["warm"][c] for c in range(READ_SESSIONS)}
    harness.begin()

    def issue(index, due, c, kind, phase):
        yield harness.at(due)
        if kind == "jsub":
            name = plan["names"][index]
            job_id = yield from harness.op(
                "jsub", phase, due,
                lambda: sessions[c].jsub(name=name, walltime=FOREVER),
                name=name)
            if job_id is not None:
                last_job[c] = job_id
        else:
            target = last_job[c]
            yield from harness.op(
                "jstat", phase, due, lambda: sessions[c].jstat(target),
                job_id=target)

    procs = [
        kernel.spawn(issue(i, *request), name=f"read-mix-{i}")
        for i, request in enumerate(plan["requests"])
    ]
    total = plan["latency_s"] + plan["capacity_s"]
    harness.advance(until=total)
    harness.end()
    run.capacity_window = (plan["latency_s"], total)
    run.commit_span = plan["latency_s"]
    # Untimed drain: the overload phase leaves a backlog; let it answer so
    # every issued request is accounted for as completed or failed.
    for proc in procs:
        if proc.is_alive:
            cluster.run(until=proc)
    run.gateway_stats = dict(gateway.stats)
    harness.gate(also_acked=warmed)
    return harness


# ---------------------------------------------------------------------------
# failover
# ---------------------------------------------------------------------------

FAILOVER_SESSIONS = 4
FAILOVER_QUIESCE = 15.0


def failover_schedule(t0: float, horizon: float) -> FaultSchedule:
    """The scripted fault schedule, offsets from the start of the measured
    phase; events past *horizon* (``--quick``) are dropped.

    head3 is never touched: it is the paper's "one head survives"."""
    majority = ["head0", "head1", "head3", "compute0", "compute1", "login"]
    script = FaultSchedule()
    script.crash(10.0, "head0").restart(22.0, "head0")
    script.crash(34.0, "head1").restart(44.0, "head1")
    script.slow_node(52.0, "head2", 0.050, 8.0)
    script.partition(64.0, [majority, ["head2"]]).heal(72.0)
    script.crash(80.0, "head2").restart(88.0, "head2")
    kept = [e for e in script.events if e.end_time <= horizon]
    # A crash whose restart fell past the horizon stays out too.
    restarted = {e.node for e in kept if e.kind == "restart"}
    kept = [e for e in kept if e.kind != "crash" or e.node in restarted]
    return FaultSchedule([
        dataclasses.replace(e, time=t0 + e.time) for e in kept
    ])


def plan_failover(seed: int, scale: str) -> dict:
    rng = random.Random(f"failover/{seed}")
    duration = SCALES[scale]["failover_s"]
    requests, walltimes = [], {}
    for i in range(int(duration // 2)):
        name = _name("f", i, rng)
        walltimes[name] = rng.uniform(0.5, 1.5)
        # Due just after the even second, so a request is in flight when
        # each scripted fault (all on even seconds) strikes.
        requests.append([2.0 * i + 0.05, i % FAILOVER_SESSIONS, "jsub", name])
    for i in range(int(duration)):
        requests.append([i + 0.5, i % FAILOVER_SESSIONS, "jstat", None])
    requests.sort(key=lambda r: r[0])
    return {"seed": seed, "requests": requests, "walltimes": walltimes,
            "duration": duration}


def run_failover(plan: dict, run: Run, tracer, observers):
    group = dataclasses.replace(
        CHAOS_GROUP, sequencer_batch_delay=0.005,
        data_batch_delay=0.005, data_batch_min_delay=0.001,
    )
    cluster, stack = _build(plan, observers, heads=4, group=group)
    harness = _Harness(run, cluster, stack, tracer)
    kernel = cluster.kernel
    cluster.run(until=FORMATION)
    suite = InvariantSuite(stack).attach()
    gateway = stack.gateway(consistency="ryw")
    sessions = [gateway.session("login", f"client{c}")
                for c in range(FAILOVER_SESSIONS)]
    harness.begin()
    injector = FaultInjector(cluster)
    injector.apply(failover_schedule(harness.t0, plan["duration"]))

    def issue(due, c, kind, name):
        yield harness.at(due)
        session = sessions[c]
        if kind == "jsub":
            yield from harness.op(
                "jsub", "main", due,
                lambda: session.jsub(
                    name=name, walltime=plan["walltimes"][name]),
                name=name)
            return
        # Id-less, as run_chaos reads: a by-id query for a job that finished
        # before a head's replay state transfer is an "unknown job" there.
        floors = dict(session.client.last_write_seq)
        rows = yield from harness.op("jstat", "main", due, session.jstat)
        if rows is not None:
            suite.observe_read(
                session.client_id, floors, session.client.last_stat_response)

    for i, request in enumerate(plan["requests"]):
        kernel.spawn(issue(*request), name=f"failover-{i}")
    kernel.spawn(suite.sampler(1.0), name="invariant-sampler")
    harness.advance(until=plan["duration"])
    injector.heal_all()
    harness.advance(until=plan["duration"] + FAILOVER_QUIESCE)
    harness.end()
    suite.final_check()
    run.violations = [str(v) for v in suite.violations]
    run.commit_span = plan["duration"]
    run.gateway_stats = dict(gateway.stats)
    harness.gate()
    return harness


PLANS = {
    "submit-deep": plan_submit_deep,
    "submit-wide": plan_submit_wide,
    "read-mix": plan_read_mix,
    "failover": plan_failover,
}
DRIVERS = {
    "submit-deep": run_submit_deep,
    "submit-wide": run_submit_wide,
    "read-mix": run_read_mix,
    "failover": run_failover,
}
