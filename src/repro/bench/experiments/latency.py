"""Figure 10: job submission latency, single vs. multiple head nodes.

Paper setup: a user on a head node submits one job at a time; measured is
the wall time of the submission command. Rows:

=================  =====  ==========
System             heads  latency
=================  =====  ==========
TORQUE             1      98 ms
JOSHUA/TORQUE      1      134 ms
JOSHUA/TORQUE      2      265 ms
JOSHUA/TORQUE      3      304 ms
JOSHUA/TORQUE      4      349 ms
=================  =====  ==========

The reproduction drives the same measurement through the simulated stack
(client on ``head0``, matching the paper's attribution of the single-head
overhead to on-node communication).
"""

from __future__ import annotations

from repro.bench.metrics import LatencySample, summarize
from repro.cluster.cluster import Cluster
from repro.joshua.deploy import build_joshua_stack
from repro.pbs.stack import build_pbs_stack

__all__ = ["PAPER_FIGURE10", "measure_torque_latency", "measure_joshua_latency", "figure10"]

#: The paper's Figure 10 in milliseconds.
PAPER_FIGURE10 = {
    ("TORQUE", 1): 98.0,
    ("JOSHUA/TORQUE", 1): 134.0,
    ("JOSHUA/TORQUE", 2): 265.0,
    ("JOSHUA/TORQUE", 3): 304.0,
    ("JOSHUA/TORQUE", 4): 349.0,
}


def measure_torque_latency(*, trials: int = 10, seed: int = 1) -> float:
    """Mean plain-TORQUE qsub latency (seconds, simulated)."""
    cluster = Cluster(head_count=1, compute_count=2, seed=seed)
    stack = build_pbs_stack(cluster)
    client = stack.client()  # on the head node, like the paper
    kernel = cluster.kernel
    samples = []
    for index in range(trials):
        start = kernel.now
        process = kernel.spawn(client.qsub(name=f"lat{index}", walltime=10_000.0))
        cluster.run(until=process)
        samples.append(LatencySample(start, kernel.now))
    return summarize(samples).mean


def measure_joshua_latency(heads: int, *, trials: int = 10, seed: int = 1) -> float:
    """Mean jsub latency with *heads* active head nodes (seconds)."""
    cluster = Cluster(head_count=heads, compute_count=2, seed=seed)
    stack = build_joshua_stack(cluster)
    cluster.run(until=1.0)  # let heartbeats settle
    client = stack.client(node="head0", prefer="head0")
    kernel = cluster.kernel
    samples = []
    for index in range(trials):
        start = kernel.now
        process = kernel.spawn(client.jsub(name=f"lat{index}", walltime=10_000.0))
        cluster.run(until=process)
        samples.append(LatencySample(start, kernel.now))
    return summarize(samples).mean


def figure10(*, trials: int = 10, seed: int = 1) -> list[dict]:
    """Regenerate Figure 10; returns one row per system configuration."""
    torque_ms = measure_torque_latency(trials=trials, seed=seed) * 1000
    rows = [_row("TORQUE", 1, torque_ms, torque_ms)]
    for heads in (1, 2, 3, 4):
        measured_ms = measure_joshua_latency(heads, trials=trials, seed=seed) * 1000
        rows.append(_row("JOSHUA/TORQUE", heads, measured_ms, torque_ms))
    return rows


def _row(system: str, heads: int, measured_ms: float, torque_ms: float) -> dict:
    paper_ms = PAPER_FIGURE10[(system, heads)]
    return {
        "system": system,
        "heads": heads,
        "measured_ms": round(measured_ms, 1),
        "paper_ms": paper_ms,
        "measured_overhead_pct": round(100 * (measured_ms - torque_ms) / torque_ms, 0),
        "paper_overhead_pct": round(100 * (paper_ms - 98.0) / 98.0, 0),
    }
