"""Turn one repeat's raw observations into named metrics.

Three groups, matching ``BENCHMARK.json``:

* :func:`sim_metrics` — end-to-end figures in *simulated* time. They are a
  pure function of (workload, seed): every repeat must give exactly the
  same dict, and the parent fails the run if one does not.
* host figures (``setup_s``, ``host_cpu_s``, ...) — computed by the parent
  in ``run.py`` across repeats, because their estimator needs all of them.
* :func:`layer_metrics` — the per-layer ledger, from the traced run.
"""

from __future__ import annotations

import hashlib
import json
import math

from workloads import SLO, Run

#: Wire ledger rows that get a per-layer metric of their own.
WIRE_TYPES = ("Heartbeat", "DataMsg", "DataBatchMsg", "OrderMsg", "StableMsg")

#: Sim-time metrics only some workloads report: a tail percentile needs the
#: samples, a read metric needs the read load, and the fault metrics need
#: faults. The driver wants every metric on every workload, so
#: the other cells carry ``NOT_REPORTED`` (printed as "—"): a constant, so it
#: can neither regress nor add load to a workload that does not have it.
ONLY_ON = {
    "jsub_p95_sim_ms": ("submit-deep", "submit-wide"),
    "jstat_p50_sim_ms": ("read-mix",),
    "jstat_p99_sim_ms": ("read-mix",),
    "read_capacity_per_sim_s": ("read-mix",),
    "slo_met_share": ("read-mix", "failover"),
    "outage_sim_s": ("failover",),
    "rejoin_sim_s": ("failover",),
    "jobs_done_share": ("failover",),
}
NOT_REPORTED = 1.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (an observed value, never interpolated)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def wire_digest(run: Run) -> str:
    """Digest of the per-message-type wire ledger of the measured phase."""
    payload = json.dumps(run.wire_by_type, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _outage(jsubs, end_of_run: float) -> float:
    """Largest (reply − due) over jsubs; a failed one is charged until the
    next successful reply (or the end of the run)."""
    worst, pending = 0.0, []
    for op in sorted(jsubs, key=lambda o: o.due):
        if not op.ok:
            pending.append(op.due)
            continue
        worst = max([worst, op.end - op.due] + [op.end - due for due in pending])
        pending.clear()
    return max([worst] + [end_of_run - due for due in pending])


def sim_metrics(run: Run) -> dict[str, float]:
    ops = run.ops
    jsubs = [op for op in ops if op.kind == "jsub"]
    jsub_lat = [op.end - op.due for op in jsubs if op.ok]
    commits = [op.end for op in ops if op.ok and op.kind in ("jsub", "jdel")]
    completed = sum(1 for op in ops if op.ok and op.end <= run.sim_duration)
    out = {
        "jsub_p50_sim_ms": 1e3 * percentile(jsub_lat, 0.50),
        "commit_per_sim_s": len(commits) / (run.commit_span or max(commits)),
        "wire_bytes_per_op": run.wire_bytes / completed,
        "replica_agree_share": 1.0 - run.replica_divergent / run.replica_pairs,
    }
    reported = {name for name, where in ONLY_ON.items() if run.workload in where}
    if "jsub_p95_sim_ms" in reported:
        out["jsub_p95_sim_ms"] = 1e3 * percentile(jsub_lat, 0.95)
    if "jstat_p50_sim_ms" in reported:
        jstat_lat = [op.end - op.due for op in ops
                     if op.kind == "jstat" and op.ok and op.phase != "capacity"]
        lo, hi = run.capacity_window
        reads_in_window = sum(
            1 for op in ops
            if op.kind == "jstat" and op.ok and lo <= op.end <= hi)
        out["jstat_p50_sim_ms"] = 1e3 * percentile(jstat_lat, 0.50)
        out["jstat_p99_sim_ms"] = 1e3 * percentile(jstat_lat, 0.99)
        out["read_capacity_per_sim_s"] = reads_in_window / (hi - lo)
    if "slo_met_share" in reported:
        scoped = [op for op in ops if op.phase != "capacity"]
        within = sum(1 for op in scoped
                     if op.ok and op.end - op.due <= SLO[op.kind])
        out["slo_met_share"] = within / len(scoped)
    if "outage_sim_s" in reported:
        due_jobs = run.short_jobs()
        done_once = sum(1 for job in due_jobs if run.mom_done.get(job) == 1)
        out["outage_sim_s"] = _outage(jsubs, run.sim_duration)
        out["rejoin_sim_s"] = _rejoin(run)
        out["jobs_done_share"] = done_once / len(due_jobs)
    for name in ONLY_ON:
        out.setdefault(name, NOT_REPORTED)
    return out


def sim_notes(run: Run) -> dict[str, float]:
    """Context printed beside the metrics (sample counts, lateness)."""
    ops = run.ops
    return {
        "jsub_samples": sum(1 for op in ops if op.kind == "jsub" and op.ok),
        "jstat_samples": sum(
            1 for op in ops
            if op.kind == "jstat" and op.ok and op.phase != "capacity"),
        "replica_divergent_jobs": run.replica_divergent,
        "open_loop_lateness_max_s": max(op.start - op.due for op in ops),
        "sim_duration_s": run.sim_duration,
        "slices": len(run.slices),
    }


def _rejoin(run: Run) -> float:
    """Mean sim-s from a head's restart to ``JoshuaServer.active``; a head
    still joining at the end is charged until the end."""
    waits = [
        (active if active is not None else run.sim_duration) - restart
        for _head, restart, active in run.rejoins
    ]
    return sum(waits) / len(waits)


def layer_metrics(run: Run, tracer) -> dict[str, float]:
    """The per-layer ledger of one traced repeat (the two cross-run shares,
    ``obs.overhead_share`` and ``trace.overhead_share``, are added by the
    parent)."""
    sums, stat, count = tracer.sums, tracer.stat, tracer.count
    ops_done = sum(1 for op in run.ops if op.ok)
    net = run.net_stats
    frames = stat("DataBatcher", "single_frames") + stat("DataBatcher", "batched_frames")
    batch_flushes = sum(
        stat("DataBatcher", f"flushes_{reason}")
        for reason in ("count", "bytes", "timer", "drain")
    )
    disk_writes = count("cluster.disk_write")
    reads_seen = sums["joshua.reads_observed"]
    short = len(run.short_jobs())
    layered = tracer.self_s(
        "sim", "net", "rpc", "gcs", "cluster", "pbs", "joshua", "obs",
        "faults", "util")
    out = {
        "sim.events": run.events,
        "sim.events_per_op": run.events / ops_done,
        "sim.loop_self_s": tracer.self_s("sim"),
        "net.codec.encode_calls": count("net.codec.encode"),
        "net.codec.decode_calls": count("net.codec.decode"),
        "net.codec.bytes": sums["net.codec.bytes"],
        "net.codec.encode_s": tracer.self_s("net.codec.encode"),
        "net.codec.decode_s": tracer.self_s("net.codec.decode"),
        "net.send_calls": count("net.send"),
        "net.send_self_s": tracer.self_s("net.send"),
        "net.self_s": tracer.self_s("net") - tracer.self_s("net.codec"),
        "net.bytes_wire": run.wire_bytes,
        "net.dropped": sum(v for k, v in net.items() if k.startswith("dropped_")),
        "net.retransmitted": stat("Transport", "retransmitted"),
        "rpc.requests": sums["rpc.requests"],
        "rpc.retries": sums["rpc.retries"],
        "rpc.timeouts": sums["rpc.timeouts"],
        "rpc.self_s": tracer.self_s("rpc"),
        "gcs.multicasts": stat("GroupMember", "multicasts"),
        "gcs.delivered": stat("GroupMember", "delivered"),
        "gcs.order_assignments": sums["gcs.order_assignments"],
        "gcs.batch_flushes": batch_flushes,
        "gcs.msgs_per_batch": (
            stat("DataBatcher", "submitted") / frames if frames else 0.0),
        "gcs.view_installs": stat("GroupMember", "view_changes"),
        "gcs.fd_transitions": sums["gcs.fd_transitions"],
        "gcs.flushes_started": stat("GroupMember", "flushes_started"),
        "gcs.self_s": tracer.self_s("gcs"),
        "cluster.disk_writes": disk_writes,
        "cluster.disk_items_per_write": (
            sums["cluster.disk_items"] / disk_writes if disk_writes else 0.0),
        "cluster.disk_write_s": tracer.self_s("cluster.disk_write"),
        "cluster.disk_reads": count("cluster.disk_read"),
        "pbs.requests": count("pbs.request"),
        "pbs.persist_calls": count("pbs.persist"),
        "pbs.sched_cycles": stat("MauiScheduler", "cycles"),
        "pbs.mom_runs": stat("PBSMom", "runs"),
        "pbs.obits_sent": stat("PBSMom", "obits_sent"),
        "pbs.self_s": tracer.self_s("pbs"),
        "joshua.commands_executed": stat("ShardReplica", "executed"),
        "joshua.exec_self_s": tracer.self_s("joshua.exec"),
        "joshua.self_s": tracer.self_s("joshua"),
        "joshua.reads_local": run.gateway_stats.get("reads_local", 0),
        "joshua.reads_fallback": run.gateway_stats.get("reads_fallback", 0),
        "joshua.read_catchup_wait_sim_ms": (
            1e3 * sums["joshua.read_wait_s"] / reads_seen if reads_seen else 0.0),
        "joshua.mutex_claims": stat("ShardReplica", "claims"),
        "joshua.mutex_revocations": stat("ShardReplica", "revocations"),
        "joshua.xfers_pulled": stat("ShardReplica", "state_transfers_pulled"),
        "joshua.xfers_served": stat("ShardReplica", "state_transfers_served"),
        "joshua.gateway_failovers": run.gateway_stats.get("failovers", 0),
        "joshua.replica_complete_share": (
            run.replica_complete / short if short else 1.0),
        "joshua.replica_divergent_jobs": run.replica_divergent,
        "joshua.client_retries": run.client_retries,
        "obs.events_recorded": sums["obs.events_recorded"],
        "obs.self_s": tracer.self_s("obs"),
        "trace.unattributed_share": 1.0 - layered / (tracer.phase_ns / 1e9),
        "failed_share": sum(1 for op in run.ops if not op.ok) / len(run.ops),
    }
    for kind in WIRE_TYPES:
        out[f"net.bytes.{kind}"] = run.wire_by_type.get(kind, 0)
    return out
