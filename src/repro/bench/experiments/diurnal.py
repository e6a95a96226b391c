"""Two experiments on a day-shaped submission stream (:class:`DiurnalWorkload`).

* :func:`endurance` — the paper's §5 stress scenario ("after 3-5 days of
  excessive operation with up-to hundreds of job submissions a minute
  Transis crashed ... we suspect incorrect memory allocation/deallocation
  of Transis to be the primary cause"), compressed into one simulated hour
  with ``head0`` crashed mid-run and restarted from its disk ten minutes
  later. Every job must run exactly once, the veteran replicas must agree,
  and the stability-based payload garbage collection must keep protocol
  state bounded (the hygiene whose absence the authors blamed).
* :func:`trace_replay` — Figures 10/11 use synthetic workloads; here a
  diurnal day run on plain TORQUE is exported as an SWF trace (the Parallel
  Workloads Archive format) and replayed identically against TORQUE and
  2-head JOSHUA: mean submission latency and jobs completed per system.
"""

from __future__ import annotations

from repro.bench.workloads import DiurnalWorkload
from repro.cluster.cluster import Cluster
from repro.gcs.config import GroupConfig
from repro.joshua.config import JOSHUA_GROUP_CONFIG
from repro.joshua.deploy import build_joshua_stack
from repro.pbs import build_pbs_stack, export_swf, workload_from_swf
from repro.pbs.job import JobState
from repro.pbs.service_times import ServiceTimes

__all__ = ["endurance", "trace_replay"]

#: A slower scheduler poll keeps the event volume of a simulated day sane
#: without changing any outcome either experiment reports.
TIMES = ServiceTimes(sched_poll_interval=0.4)
ENDURANCE_GROUP = GroupConfig(
    heartbeat_interval=0.25, suspect_timeout=0.8, flush_timeout=1.5,
    retransmit_interval=0.1, gc_interval=10.0,
)
SYSTEMS = ("TORQUE x1", "JOSHUA x2")


def _submit_all(cluster, workload, submit, *alongside, drain: float) -> list[float]:
    """Submit *workload* in order (with the *alongside* processes running),
    then idle *drain* sim-seconds; returns each submission's latency."""
    kernel = cluster.kernel
    latencies: list[float] = []

    def driver():
        for delay, spec in workload:
            if delay:
                yield kernel.timeout(delay)
            start = kernel.now
            yield from submit(spec)
            latencies.append(kernel.now - start)

    process = kernel.spawn(driver())
    for coroutine in alongside:
        kernel.spawn(coroutine)
    cluster.run(until=process)
    cluster.run(until=kernel.now + drain)
    return latencies


def endurance() -> dict:
    """150 diurnal jobs on 3 heads over one simulated hour, ``head0``
    crashed at 800 s and restarted at 1400 s, then a 400 s drain."""
    cluster = Cluster(head_count=3, compute_count=2, seed=71, login_node=True)
    stack = build_joshua_stack(cluster, group_config=ENDURANCE_GROUP,
                               service_times=TIMES)
    kernel = cluster.kernel
    workload = DiurnalWorkload(150, base_rate=150 / 3600.0, day_seconds=3600.0,
                               walltime_range=(2.0, 8.0), seed=71)

    def churn():
        yield kernel.timeout(800.0)
        cluster.node("head0").crash()
        yield kernel.timeout(600.0)
        cluster.node("head0").restart()

    submitted = _submit_all(cluster, workload,
                            stack.client(node="login", timeout=4.0).jsub,
                            churn(), drain=400.0)
    # head1/head2 lived the whole run; the rejoined head0 carries only
    # post-join history (transfer replays live jobs only).
    queues = {tuple((j.job_id, j.state.value) for j in stack.pbs(h).jobs)
              for h in ("head1", "head2")}
    groups = [stack.joshua(h).group for h in stack.head_names
              if cluster.node(h).is_up and "joshua" in cluster.node(h).daemons]
    return {
        "submitted": len(submitted),
        "completed": sum(1 for j in stack.pbs("head1").jobs
                         if j.state is JobState.COMPLETE),
        "runs": sum(stack.mom(c.name).stats["runs"] for c in cluster.computes),
        "replicas_agree": len(queues) == 1,
        "rejoined_active": stack.joshua("head0").active,
        "max_resident_payloads": max(g.queue.payload_count() for g in groups),
        "gc_released": max(g.stats.get("gc_released", 0) for g in groups),
        "sim_hours": round(kernel.now / 3600.0, 2),
    }


def _replay(trace: str, system: str) -> dict:
    workload = workload_from_swf(trace, max_nodes=2)
    joshua = system != "TORQUE x1"
    cluster = Cluster(head_count=2 if joshua else 1, compute_count=2, seed=92,
                      login_node=True)
    if joshua:
        stack = build_joshua_stack(cluster, group_config=JOSHUA_GROUP_CONFIG,
                                   service_times=TIMES)
        submit, stats = stack.client(node="login").jsub, stack.pbs("head0").stats
    else:
        stack = build_pbs_stack(cluster, service_times=TIMES)
        submit, stats = stack.client(node="login").qsub, stack.server.stats
    latencies = _submit_all(cluster, workload, submit, drain=300.0)
    return {
        "system": system,
        "jobs": len(workload),
        "mean_submit_ms": round(1000 * sum(latencies) / len(latencies), 1),
        "completed": stats["completed"],
    }


def trace_replay() -> list[dict]:
    """One row per system in :data:`SYSTEMS`, all replaying one SWF day."""
    cluster = Cluster(head_count=1, compute_count=2, seed=91)
    stack = build_pbs_stack(cluster, service_times=TIMES)
    day = DiurnalWorkload(40, base_rate=40 / 900.0, day_seconds=900.0,
                          walltime_range=(2.0, 6.0), seed=91)
    _submit_all(cluster, day, stack.client().qsub, drain=300.0)
    trace = export_swf(stack.server.jobs.snapshot())
    return [_replay(trace, system) for system in SYSTEMS]
