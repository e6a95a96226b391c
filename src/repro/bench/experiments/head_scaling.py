"""Head-count scaling: Figure 10 past four heads, and a stress probe.

The paper's Figure 10 stops at four heads with a "roughly constant
increment per head". Two tables take it further, both deterministic:

* ``figure10_extended`` — the paper's own method
  (:func:`~repro.bench.experiments.latency.measure_joshua_latency`: ten
  sequential jsubs from ``head0``) at more head counts;
* ``stress`` — a login-node client submitting short jobs back to back, then
  an idle drain: mean jsub latency, and the whole run's wire bytes and
  kernel events per job (job launch, obituaries and the drain included),
  which is where the SAFE plane's growth in *n* shows.
"""

from __future__ import annotations

from repro.bench.experiments.latency import PAPER_FIGURE10, measure_joshua_latency
from repro.cluster.cluster import Cluster
from repro.joshua.deploy import build_joshua_stack

__all__ = ["stress_probe", "head_scaling"]

#: The stress probe: this many sequential short jobs, then an idle drain,
#: under its own seed.
STRESS_JOBS = 40
STRESS_WALLTIME = 0.5
STRESS_DRAIN = 20.0
STRESS_SEED = 11
#: The Figure 10 runs' seed.
SEED = 1


def stress_probe(heads: int) -> dict:
    """:data:`STRESS_JOBS` sequential ``jsub`` from the login node against
    *heads* heads (default stack: unbatched, one shard), then
    :data:`STRESS_DRAIN` idle sim-seconds."""
    cluster = Cluster(head_count=heads, compute_count=2, login_node=True,
                      seed=STRESS_SEED)
    stack = build_joshua_stack(cluster)
    kernel = cluster.kernel
    cluster.run(until=2.0)
    client = stack.client("login", timeout=60.0)
    latencies = []

    def submit():
        for index in range(STRESS_JOBS):
            start = kernel.now
            yield from client.jsub(name=f"s{index:03d}", walltime=STRESS_WALLTIME)
            latencies.append(kernel.now - start)

    cluster.run(until=kernel.spawn(submit(), name="stress-client"))
    cluster.run(until=kernel.now + STRESS_DRAIN)
    return {
        "heads": heads,
        "jobs": STRESS_JOBS,
        "mean_jsub_ms": round(1000 * sum(latencies) / STRESS_JOBS, 1),
        "wire_bytes_per_job": round(
            cluster.network.stats["bytes_wire"] / STRESS_JOBS, 1),
        "kernel_events_per_job": round(kernel.processed_events / STRESS_JOBS, 1),
    }


def head_scaling(*, figure10_heads, stress_heads) -> dict:
    """Both tables, one row per head count; a Figure 10 row carries the
    paper's value where the paper has one."""
    figure10 = []
    for heads in figure10_heads:
        row = {"heads": heads,
               "measured_ms": round(1000 * measure_joshua_latency(heads, seed=SEED), 1)}
        paper = PAPER_FIGURE10.get(("JOSHUA/TORQUE", heads))
        if paper is not None:
            row["paper_ms"] = paper
        figure10.append(row)
    return {
        "figure10_extended": figure10,
        "stress": [stress_probe(heads) for heads in stress_heads],
    }
