"""Figure 11: job submission throughput — time to enqueue 10/50/100 jobs.

Paper rows (seconds to submit the batch, sequential client):

=================  =====  =======  =======  ========
System             heads  10 jobs  50 jobs  100 jobs
=================  =====  =======  =======  ========
TORQUE             1      0.93     4.95     10.18
JOSHUA/TORQUE      1      1.32     6.48     14.08
JOSHUA/TORQUE      2      2.68     13.09    26.37
JOSHUA/TORQUE      3      2.93     15.91    30.03
JOSHUA/TORQUE      4      3.62     17.65    33.32
=================  =====  =======  =======  ========

The reproduction replays the same burst through a sequential client (the
q/j commands are synchronous binaries; a burst is a shell loop).

The **burst offered-load** variant (:func:`measure_offered_burst`) spawns
every jsub concurrently instead — many outstanding commands, the regime
the batched DATA path is built for — and
:func:`burst_batching_ablation` compares the wire cost per committed
command with the batching pipeline off vs. on.
"""

from __future__ import annotations

import dataclasses

from repro.bench.workloads import BurstWorkload
from repro.cluster.cluster import Cluster
from repro.joshua.config import JOSHUA_GROUP_CONFIG
from repro.joshua.deploy import build_joshua_stack
from repro.pbs.stack import build_pbs_stack

__all__ = [
    "PAPER_FIGURE11",
    "BATCHED_GROUP_CONFIG",
    "measure_burst",
    "figure11",
    "measure_offered_burst",
    "burst_batching_ablation",
]

#: (system, heads) -> {jobs: seconds} from the paper.
PAPER_FIGURE11 = {
    ("TORQUE", 1): {10: 0.93, 50: 4.95, 100: 10.18},
    ("JOSHUA/TORQUE", 1): {10: 1.32, 50: 6.48, 100: 14.08},
    ("JOSHUA/TORQUE", 2): {10: 2.68, 50: 13.09, 100: 26.37},
    ("JOSHUA/TORQUE", 3): {10: 2.93, 50: 15.91, 100: 30.03},
    ("JOSHUA/TORQUE", 4): {10: 3.62, 50: 17.65, 100: 33.32},
}


def measure_burst(system: str, heads: int, jobs: int, *, seed: int = 1) -> float:
    """Simulated seconds to sequentially submit *jobs* jobs."""
    cluster = Cluster(head_count=heads, compute_count=2, seed=seed)
    if system == "TORQUE":
        stack = build_pbs_stack(cluster)
        submit = lambda spec: stack.client().qsub(spec)  # noqa: E731
    else:
        stack = build_joshua_stack(cluster)
        client = stack.client(node="head0", prefer="head0")
        submit = client.jsub
    cluster.run(until=1.0)
    kernel = cluster.kernel

    def burst():
        for delay, spec in BurstWorkload(jobs, walltime=100_000.0):
            if delay:
                yield kernel.timeout(delay)
            yield from submit(spec)

    start = kernel.now
    process = kernel.spawn(burst())
    cluster.run(until=process)
    return kernel.now - start


def figure11(*, job_counts=(10, 50, 100), seed: int = 1) -> list[dict]:
    """Regenerate Figure 11; one row per (system, heads)."""
    rows = []
    configs = [("TORQUE", 1), ("JOSHUA/TORQUE", 1), ("JOSHUA/TORQUE", 2),
               ("JOSHUA/TORQUE", 3), ("JOSHUA/TORQUE", 4)]
    for system, heads in configs:
        row: dict = {"system": system, "heads": heads}
        for jobs in job_counts:
            measured = measure_burst(system, heads, jobs, seed=seed)
            row[f"measured_{jobs}_s"] = round(measured, 2)
            paper = PAPER_FIGURE11[(system, heads)].get(jobs)
            if paper is not None:
                row[f"paper_{jobs}_s"] = paper
        rows.append(row)
    return rows


#: The "batching on" arm of the ablation: the full batched+pipelined DATA
#: path — outbound DATA coalescing (Nagle window adaptively between 1 and
#: 5 ms, MTU-ish byte budget) *and* sequencer ORDER batching with the size
#: trigger. Everything else is the paper-calibrated JOSHUA config.
BATCHED_GROUP_CONFIG = dataclasses.replace(
    JOSHUA_GROUP_CONFIG,
    data_batch_delay=0.005,
    data_batch_min_delay=0.001,
    sequencer_batch_delay=0.005,
)


def measure_offered_burst(
    heads: int, jobs: int, *, seed: int = 1, batching: bool = False,
) -> dict:
    """Burst offered load: *jobs* concurrent jsubs against *heads* heads.

    Unlike :func:`measure_burst` (sequential client, ≤ 1 outstanding
    command — a regime batching cannot improve by construction), every
    submission is in flight at once. Returns measured wire/throughput
    figures for one run::

        {"heads", "jobs", "batching", "elapsed_s", "events",
         "events_per_sim_s", "bytes_wire", "bytes_wire_per_command",
         "wire_bytes_by_type"}

    All byte figures are the *delta over the burst* (boot/heartbeat
    traffic before the burst excluded), measured by the codec — and every
    DataBatchMsg crossing the wire is decoded at delivery, so a codec
    regression fails the run rather than skewing it.
    """
    config = BATCHED_GROUP_CONFIG if batching else JOSHUA_GROUP_CONFIG
    cluster = Cluster(head_count=heads, compute_count=2, seed=seed)
    stack = build_joshua_stack(cluster, group_config=config)
    client = stack.client(node="head0", prefer="head0")
    cluster.run(until=1.0)
    kernel = cluster.kernel
    network = cluster.network
    bytes_before = network.stats["bytes_wire"]
    types_before = dict(network.wire_bytes_by_type)
    events_before = kernel.processed_events
    start = kernel.now
    procs = [
        kernel.spawn(client.jsub(name=f"burst{i}", walltime=100_000.0))
        for i in range(jobs)
    ]
    for process in procs:
        cluster.run(until=process)
    elapsed = kernel.now - start
    events = kernel.processed_events - events_before
    bytes_wire = network.stats["bytes_wire"] - bytes_before
    by_type = {
        kind: network.wire_bytes_by_type[kind] - types_before.get(kind, 0)
        for kind in sorted(network.wire_bytes_by_type)
    }
    return {
        "heads": heads,
        "jobs": jobs,
        "batching": batching,
        "elapsed_s": round(elapsed, 4),
        "events": events,
        "events_per_sim_s": round(events / elapsed, 1),
        "bytes_wire": bytes_wire,
        "bytes_wire_per_command": round(bytes_wire / jobs, 1),
        "wire_bytes_by_type": {k: v for k, v in by_type.items() if v},
    }


def burst_batching_ablation(*, heads: int = 3, jobs: int = 50, seed: int = 1) -> dict:
    """The batching ablation: identical burst, pipeline off vs. on.

    Returns ``{"unbatched": row, "batched": row, "reduction_pct": float}``
    where *reduction_pct* is the drop in ``bytes_wire_per_command`` the
    batched pipeline buys at this offered load.
    """
    unbatched = measure_offered_burst(heads, jobs, seed=seed, batching=False)
    batched = measure_offered_burst(heads, jobs, seed=seed, batching=True)
    reduction = 1 - batched["bytes_wire_per_command"] / unbatched["bytes_wire_per_command"]
    return {
        "unbatched": unbatched,
        "batched": batched,
        "reduction_pct": round(100 * reduction, 1),
    }
