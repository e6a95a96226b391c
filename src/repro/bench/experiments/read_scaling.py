"""Read-path scaling: local-read QPS vs. head count under open-loop load.

Not a paper figure — the paper's jstat rides the ordered command stream,
so status queries cost a slot of the single total order and a turn of the
serial executor no matter which head answers. The local read path
(PROTOCOLS.md §12) answers from the receiving head's own replica instead,
and *that* capacity grows with the head count: each head is one
single-threaded daemon + PBS pair (``JoshuaTimes.read_service`` of
occupancy per answer), so N heads answer N reads at once.

The front-end is **open loop** (:class:`~repro.bench.workloads
.OpenLoopWorkload`): request times come from the arrival process alone and
never wait on the system under test — the 1-head run saturates and queues
while the 4-head run keeps up, which is exactly the difference a
closed-loop driver would hide. A :class:`~repro.joshua.gateway
.JoshuaGateway` pins each client of the population to a head by stable
hash, so the read population spreads across every head while each client
keeps read-your-writes affinity with the head that stamped its writes.

Two claims, asserted over the committed ``BENCH_read_scaling.json`` by
``tests/integration/test_figure_claims.py``:

* aggregate completed read QPS at 4 heads is at least twice the 1-head
  figure under the identical offered load;
* the read load does not steal write capacity: committed submissions/sec
  in the mixed run stays within 10 % of the write-only baseline at the
  same head count (reads never enter the ordered stream).
"""

from __future__ import annotations

from repro.bench.workloads import OpenLoopWorkload
from repro.cluster.cluster import Cluster
from repro.joshua.deploy import build_joshua_stack
from repro.util.errors import NoActiveHeadError

__all__ = ["measure_read_mix", "read_scaling"]

#: Long enough that submitted jobs stay queued (the bench measures the
#: command plane, not the compute nodes).
_WALLTIME_SCALE = 10_000.0

#: Client sessions the gateway spreads the offered load over.
CLIENTS = 100

#: Sim-seconds of offered load per run, the offered read rate (reads/s) and
#: the seed of every run.
DURATION = 10.0
READ_RATE = 400.0
SEED = 1
#: The head counts :func:`read_scaling` measures.
HEAD_COUNTS = (1, 2, 4)


def measure_read_mix(*, heads: int, read_rate: float, write_rate: float) -> dict:
    """One open-loop run: *read_rate* reads/s + *write_rate* writes/s
    offered for :data:`DURATION` seconds against a *heads*-head stack.

    Reads target the issuing client's most recent job (id-less until it
    has one). Returns completed-read QPS, the local/fallback/failed read
    split, and committed submissions/sec observed on head0.
    """
    cluster = Cluster(head_count=heads, compute_count=1, login_node=True, seed=SEED)
    kernel = cluster.kernel
    stack = build_joshua_stack(cluster)
    gateway = stack.gateway(timeout=60.0)
    cluster.run(until=1.5)

    total_rate = read_rate + write_rate
    workload = OpenLoopWorkload(
        count=max(1, int(total_rate * DURATION)),
        rate=total_rate,
        read_fraction=read_rate / total_rate,
        clients=CLIENTS,
        walltime_scale=_WALLTIME_SCALE,
        walltime_cap=10 * _WALLTIME_SCALE,
        seed=SEED,
    )

    t0 = kernel.now
    sessions: dict[int, object] = {}
    last_job: dict[int, str] = {}
    done = {"reads": 0, "writes": 0, "failed": 0}

    def session_for(client: int):
        session = sessions.get(client)
        if session is None:
            session = gateway.session("login", f"client{client}")
            sessions[client] = session
        return session

    def issue(request):
        at = t0 + request.time
        if at > kernel.now:
            yield kernel.timeout(at - kernel.now)
        session = session_for(request.client)
        try:
            if request.kind == "jsub":
                job_id = yield from session.jsub(request.spec)
                last_job[request.client] = job_id
                done["writes"] += 1
            else:
                yield from session.jstat(last_job.get(request.client))
                done["reads"] += 1
        except NoActiveHeadError:
            done["failed"] += 1

    offered = {"reads": 0, "writes": 0}
    for index, request in enumerate(workload):
        offered["reads" if request.kind == "jstat" else "writes"] += 1
        kernel.spawn(issue(request), name=f"openloop-{index}")
    cluster.run(until=t0 + DURATION)

    observer = stack.joshua("head0")
    committed_writes = sum(
        1 for command in observer.command_log if command.kind == "jsub"
    )
    return {
        "heads": heads,
        "duration_s": DURATION,
        "clients": CLIENTS,
        "consistency": "ryw",
        "offered_read_per_s": round(offered["reads"] / DURATION, 2),
        "offered_write_per_s": round(offered["writes"] / DURATION, 2),
        "reads_completed": done["reads"],
        "read_qps": round(done["reads"] / DURATION, 2),
        "reads_local": gateway.stats["reads_local"],
        "reads_fallback": gateway.stats["reads_fallback"],
        "reads_failed": done["failed"],
        "writes_acked": done["writes"],
        "write_committed": committed_writes,
        "write_committed_per_s": round(committed_writes / DURATION, 2),
        "gateway_sessions": gateway.stats["sessions"],
    }


def read_scaling(*, write_rate: float = 3.0) -> dict:
    """The identical offered mix at each head count, plus a write-only
    baseline per head count for the does-not-steal-writes comparison."""
    rows = []
    for heads in HEAD_COUNTS:
        mixed = measure_read_mix(heads=heads, read_rate=READ_RATE, write_rate=write_rate)
        baseline = measure_read_mix(heads=heads, read_rate=0.0, write_rate=write_rate)
        mixed["write_only_committed_per_s"] = baseline["write_committed_per_s"]
        base = baseline["write_committed_per_s"]
        mixed["write_ratio"] = round(
            mixed["write_committed_per_s"] / base, 3
        ) if base else 1.0
        rows.append(mixed)
    speedup = (
        rows[-1]["read_qps"] / rows[0]["read_qps"]
        if rows[0]["read_qps"] else float(len(HEAD_COUNTS))
    )
    return {
        "rows": rows,
        "read_qps_speedup": round(speedup, 2),
        "offered": {"read_per_s": READ_RATE, "write_per_s": write_rate},
    }
