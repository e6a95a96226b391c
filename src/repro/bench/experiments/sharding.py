"""Shard scaling extension: throughput vs. number of ordering shards.

Not a paper figure — JOSHUA runs one Transis group, so every command in
the system shares a single total order and a single serial executor per
head. The sharded deployment (PROTOCOLS.md §10) partitions the job
namespace by PBS queue across N co-hosted GCS groups: N sequencers on
distinct heads, N serial executors per head, one independent total order
per shard. This experiment measures what that buys and what it must not
cost:

* :func:`shard_scaling` — the same concurrent burst, spread across every
  shard's queue namespace, at shards = 1/2/4. Aggregate committed
  commands per second should rise monotonically with the shard count:
  the single group's sequencer + SAFE-stability pipeline is the
  serialization point, and sharding divides it.
* :func:`sequencer_kill` — kill one shard's sequencer mid-stream (its
  GCS endpoint on the sequencer head goes dark — the co-hosted member of
  the *other* shard on that head keeps running, the sharpest isolation
  probe) and measure per-shard commit rates before / while the victim
  shard's view change runs / after failover. The undisturbed shard's
  commit stream must not stall; the victim shard must resume under its
  new sequencer.

Both results are committed as ``BENCH_shard_scaling.json`` (a golden entry
of ``tools/golden.py``).
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.gcs.config import FAST_GROUP_CONFIG
from repro.joshua.config import JOSHUA_GROUP_CONFIG
from repro.joshua.deploy import build_joshua_stack
from repro.joshua.server import JOSHUA_GCS_PORT
from repro.joshua.shard import queue_for_shard
from repro.util.errors import NoActiveHeadError

__all__ = ["measure_shard_burst", "shard_scaling", "sequencer_kill"]

#: Compute nodes behind every run here, and the seed of every run.
COMPUTES = 2
SEED = 1
#: The scaling burst: this many concurrent jsubs against this many heads.
BURST_HEADS = 4
BURST_JOBS = 48
#: The shard counts :func:`shard_scaling` runs the burst at.
SHARD_COUNTS = (1, 2, 4)
#: The sequencer-kill run: shard 1 of this many loses its sequencer, on
#: this many heads.
KILL_SHARDS = 2
KILL_HEADS = 3


def measure_shard_burst(shards: int) -> dict:
    """One concurrent burst of :data:`BURST_JOBS` jsubs, round-robined
    across every shard's queue namespace, against a *shards*-way sharded
    stack of :data:`BURST_HEADS` heads.

    Returns the aggregate committed-commands/sec on the client's head::

        {"shards", "heads", "jobs", "elapsed_s", "committed",
         "committed_per_s", "per_shard_committed"}
    """
    heads, jobs = BURST_HEADS, BURST_JOBS
    cluster = Cluster(head_count=heads, compute_count=COMPUTES, seed=SEED)
    stack = build_joshua_stack(
        cluster, group_config=JOSHUA_GROUP_CONFIG, shards=shards
    )
    client = stack.client(node="head0", prefer="head0")
    cluster.run(until=1.0)
    kernel = cluster.kernel
    joshua = stack.joshua("head0")
    before = [replica.stats["executed"] for replica in joshua.shards]
    start = kernel.now
    procs = [
        kernel.spawn(client.jsub(
            name=f"shard-burst{i}", walltime=100_000.0,
            queue=queue_for_shard(i % shards, shards),
        ))
        for i in range(jobs)
    ]
    for process in procs:
        cluster.run(until=process)
    elapsed = kernel.now - start
    per_shard = [
        replica.stats["executed"] - b
        for replica, b in zip(joshua.shards, before)
    ]
    committed = sum(per_shard)
    return {
        "shards": shards,
        "heads": heads,
        "jobs": jobs,
        "elapsed_s": round(elapsed, 4),
        "committed": committed,
        "committed_per_s": round(committed / elapsed, 2),
        "per_shard_committed": per_shard,
    }


def shard_scaling() -> list[dict]:
    """One :func:`measure_shard_burst` row per shard count, same burst."""
    return [measure_shard_burst(n) for n in SHARD_COUNTS]


def sequencer_kill() -> dict:
    """Kill shard 1's sequencer under continuous per-shard load.

    One submission stream per shard runs throughout. After 1 s of steady
    state, shard 1's GCS endpoint on its sequencer head is blackholed —
    that shard's sequencer is dead, while the same head's shard-0 member
    keeps participating. The 0.3 s window that follows sits inside the
    suspicion interval (no view change yet: shard 1 cannot order, shard 0
    must not care), then after 2.5 s of failover a last 1 s window shows
    shard 1 committing again under its new sequencer. Commit counts come
    from a surviving non-victim head.
    """
    shards, heads = KILL_SHARDS, KILL_HEADS
    cluster = Cluster(head_count=heads, compute_count=COMPUTES,
                      login_node=True, seed=SEED)
    # Fast group timings (unlike the scaling burst's paper-calibrated
    # JOSHUA_GROUP_CONFIG): failure detection and the resulting view change
    # must complete inside a short measured window.
    stack = build_joshua_stack(
        cluster, group_config=FAST_GROUP_CONFIG, shards=shards
    )
    kernel = cluster.kernel
    cluster.run(until=2.0)  # every shard's full view forms

    joshua = stack.joshua("head0")
    victim_addr = joshua.shards[1].group.engine.sequencer_of(
        joshua.shards[1].group.view
    )
    victim = victim_addr.node
    observer = "head0" if victim != "head0" else "head1"
    observed = stack.joshua(observer)
    client = stack.client(node="login", prefer=observer)

    def stream(shard: int):
        i = 0
        while True:
            try:
                yield from client.jsub(
                    name=f"seqkill-s{shard}-{i}", walltime=100_000.0,
                    queue=queue_for_shard(shard, shards),
                )
            except NoActiveHeadError:
                pass
            i += 1
            yield kernel.timeout(0.02)  # client think time

    for shard in range(shards):
        kernel.spawn(stream(shard), name=f"seqkill-stream-{shard}")

    def counts():
        return [replica.stats["executed"] for replica in observed.shards]

    def window(duration: float) -> dict:
        start = counts()
        cluster.run(until=kernel.now + duration)
        committed = [now - then for now, then in zip(counts(), start)]
        return {
            "duration_s": duration,
            "committed": committed,
            "committed_per_s": [round(c / duration, 1) for c in committed],
        }

    before = window(1.0)
    token = cluster.network.add_drop_filter(
        lambda src, dst, payload: (
            victim in (src.node, dst.node)
            and JOSHUA_GCS_PORT + 1 in (src.port, dst.port)
        )
    )
    sequencer_dead = window(0.3)
    cluster.run(until=kernel.now + 2.5)  # exclusion + new sequencer
    after = window(1.0)
    cluster.network.remove_drop_filter(token)

    new_sequencer = observed.shards[1].group.engine.sequencer_of(
        observed.shards[1].group.view
    )
    return {
        "shards": shards,
        "heads": heads,
        "victim_sequencer": victim,
        "observer": observer,
        "new_shard1_sequencer": new_sequencer.node,
        "windows": {
            "before": before,
            "sequencer_dead": sequencer_dead,
            "after_failover": after,
        },
    }
