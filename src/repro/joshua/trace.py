"""The ``repro trace`` scenario: a fully observed JOSHUA run.

Builds the standard replicated stack with a :class:`~repro.obs.collector.
TraceCollector` attached, drives a small deterministic ``jsub`` workload to
completion, and returns the collector plus per-run facts. The CLI renders
per-job causal timelines (jsub → ordered → qsub executed → jmutex →
launched → obit) and the aggregate per-phase latency breakdown — the same
decomposition Figure 10 reports as "Transis overhead vs. PBS execution".

Lives in the ``joshua`` layer (not ``obs``): the observability layer never
imports the stacks it observes; scenario *construction* belongs up here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster.cluster import Cluster
from repro.joshua.config import JOSHUA_GROUP_CONFIG
from repro.joshua.deploy import build_joshua_stack
from repro.joshua.shard import queue_for_shard
from repro.obs.collector import TraceCollector, attach_collector
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import attach_recorder
from repro.obs.timeseries import attach_timeseries
from repro.util.errors import NoActiveHeadError

__all__ = ["TraceRun", "run_traced_scenario"]


@dataclass
class TraceRun:
    """Everything the trace surfaces need from one observed run."""

    seed: int
    heads: int
    computes: int
    ordering: str
    collector: TraceCollector
    cluster: Cluster
    submitted: list[str] = field(default_factory=list)
    failed_submits: int = 0
    #: Ordering-layer shard count (1 = single group, the default).
    shards: int = 1

    @property
    def registry(self) -> MetricsRegistry:
        return self.collector.registry

    @property
    def network(self):
        return self.cluster.network


#: Sim-seconds each traced job runs.
WALLTIME = 1.0


def run_traced_scenario(
    *,
    seed: int = 7,
    heads: int = 3,
    computes: int = 2,
    jobs: int = 3,
    ordering: str = "sequencer",
    shards: int = 1,
) -> TraceRun:
    """Run the observed scenario to completion; deterministic given *seed*.

    Jobs are submitted back-to-back from the login node (each waits for its
    jsub ack, the exclusive scheduler then runs them serially), so per-job
    timelines do not overlap and the per-phase breakdown is clean. With
    ``shards > 1`` the submissions round-robin across every shard's queue
    namespace and GCS spans/metrics carry ``shard=`` labels. The flight
    recorder and time-series sampler are always attached (passive), as
    ``run.collector.recorder`` and ``run.collector.sampler``.
    """
    group = replace(JOSHUA_GROUP_CONFIG, ordering=ordering)
    cluster = Cluster(
        head_count=heads, compute_count=computes, login_node=True, seed=seed
    )
    stack = build_joshua_stack(cluster, group_config=group, shards=shards)
    collector = attach_collector(cluster.network)
    attach_recorder(cluster.network)
    attach_timeseries(cluster.network)
    run = TraceRun(
        seed=seed, heads=heads, computes=computes, ordering=ordering,
        collector=collector, cluster=cluster, shards=shards,
    )
    cluster.run(until=2.0)  # group formation

    client = stack.client("login")

    def workload():
        for i in range(jobs):
            extra = (
                {"queue": queue_for_shard(i % shards, shards)}
                if shards > 1 else {}
            )
            try:
                job_id = yield from client.jsub(
                    name=f"trace-{i}", walltime=WALLTIME, **extra
                )
                run.submitted.append(job_id)
            except NoActiveHeadError:  # pragma: no cover - no faults here
                run.failed_submits += 1

    cluster.kernel.spawn(workload(), name="trace-workload")
    # Serial execution on an exclusive cluster: generous fixed horizon so
    # every job's obit lands before the run ends.
    cluster.run(until=2.0 + jobs * (WALLTIME + 5.0) + 10.0)
    return run
