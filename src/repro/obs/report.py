"""Human-readable reporting: job timelines, phase breakdowns, metric tables.

Pure formatting over collector/registry state — returns lists of lines so
the CLI surfaces (``repro trace``, ``repro chaos``) stay in charge of
printing. The phase breakdown table is the Figure-10 analogue: one row per
lifecycle phase with count/mean/p95 over every traced job, separating the
Transis-side cost (ordering) from the PBS-side cost (execute/launch/run).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.events import PHASE_ORDER, JobTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "format_table",
    "job_timeline_lines",
    "phase_breakdown_lines",
    "rpc_latency_lines",
    "wire_bytes_lines",
    "shard_breakdown_lines",
]


def format_table(headers: list[str], rows: list[list[str]], indent: str = "  ") -> list[str]:
    """Left-aligned fixed-width text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def render(cells):
        return indent + "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [render(headers), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in rows)
    return lines


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.2f}ms"


def job_timeline_lines(trace: JobTrace) -> list[str]:
    """One job's causal timeline: every lifecycle event with +delta from
    the first, then its per-phase decomposition."""
    title = trace.command or "job"
    ids = trace.trace_id + (f" -> {trace.job_id}" if trace.job_id and trace.job_id != trace.trace_id else "")
    lines = [f"{title} {ids}"]
    start = trace.started_at or 0.0
    for event in trace.events:
        extra = {k: v for k, v in event.fields.items() if k not in ("job_id", "command")}
        detail = "".join(f" {k}={v}" for k, v in sorted(extra.items()))
        lines.append(
            f"  t={event.time:>9.4f}s  +{_ms(event.time - start):>9}  "
            f"{event.kind:<13} @{event.node}{detail}"
        )
    phases = trace.phases()
    if phases:
        parts = "  ".join(f"{p}={_ms(phases[p])}" for p in PHASE_ORDER if p in phases)
        lines.append(f"  phases: {parts}")
    return lines


def phase_breakdown_lines(registry: "MetricsRegistry") -> list[str]:
    """Aggregate per-phase latency table (the Figure-10 decomposition)."""
    series = dict_by_label(registry.find("job.phase_s"), "phase")
    rows = []
    for phase in PHASE_ORDER:
        hist = series.get(phase)
        if hist is None or not hist.count:
            continue
        s = hist.summary()
        rows.append([
            phase, str(s["count"]), _ms(s["mean"]), _ms(s["min"]),
            _ms(s["p50"]), _ms(s["p95"]), _ms(s["p99"]), _ms(s["max"]),
        ])
    if not rows:
        return ["  (no job phases observed)"]
    return format_table(
        ["phase", "count", "mean", "min", "p50", "p95", "p99", "max"], rows
    )


def rpc_latency_lines(registry: "MetricsRegistry") -> list[str]:
    """Per-request-type RPC table: calls, retries, timeouts, latency."""
    latency = dict_by_label(registry.find("rpc.client.latency_s"), "request")
    if not latency:
        return ["  (no rpc conversations observed)"]
    retries = {
        labels.get("request"): counter.value
        for labels, counter in registry.find("rpc.client.retries")
    }
    timeouts = {
        labels.get("request"): counter.value
        for labels, counter in registry.find("rpc.client.timeouts")
    }
    rows = []
    for request in sorted(latency):
        hist = latency[request]
        s = hist.summary()
        rows.append([
            request, str(s["count"]),
            str(retries.get(request, 0)), str(timeouts.get(request, 0)),
            _ms(s["mean"]), _ms(s["p50"]), _ms(s["p95"]), _ms(s["max"]),
        ])
    return format_table(
        ["request", "calls", "retries", "timeouts", "mean", "p50", "p95", "max"], rows
    )


def dict_by_label(pairs, label: str) -> dict:
    """``registry.find()`` output keyed by one label's value."""
    return {labels.get(label): metric for labels, metric in pairs}


def wire_bytes_lines(wire: dict, offered: dict) -> list[str]:
    """Per-message-type byte ledger tables: bytes that occupied the wire
    (off-node, post-drop; a network's ``wire_bytes_by_type``) next to bytes
    offered to the fabric (pre-drop; its ``offered_bytes_by_type``), sorted
    by wire share."""
    if not wire and not offered:
        return ["  (no wire traffic observed)"]
    total_wire = sum(wire.values()) or 1
    rows = []
    for kind in sorted(set(wire) | set(offered),
                       key=lambda k: (-wire.get(k, 0), k)):
        rows.append([
            kind,
            str(wire.get(kind, 0)),
            f"{100.0 * wire.get(kind, 0) / total_wire:.1f}%",
            str(offered.get(kind, 0)),
        ])
    rows.append([
        "TOTAL", str(sum(wire.values())), "100.0%",
        str(sum(offered.values())),
    ])
    return format_table(["type", "wire_bytes", "wire%", "offered_bytes"], rows)


def shard_breakdown_lines(
    registry: "MetricsRegistry", shard: int | None = None
) -> list[str]:
    """Per-shard ordering-pipeline table for sharded runs: multicasts,
    deliveries, order assignments and e2e latency per ``shard=`` label.
    With *shard*, only that shard's row is shown (the CLI ``--shard``
    filter). Empty (one informational line) when no shard-labelled series
    exist."""
    shards: dict = {}

    def tally(name: str, field: str) -> None:
        for labels, metric in registry.find(name):
            series_shard = labels.get("shard")
            if series_shard is None:
                continue
            if shard is not None and series_shard != shard:
                continue
            entry = shards.setdefault(
                series_shard,
                {"mcast": 0, "delivered": 0, "ordered": 0, "e2e": None},
            )
            if field == "e2e":
                merged = entry["e2e"]
                if merged is None:
                    entry["e2e"] = metric
                else:
                    # Several nodes' histograms: fold counts for the table.
                    entry["e2e"] = _merge_hist(merged, metric)
            else:
                entry[field] += metric.value

    tally("gcs.multicasts", "mcast")
    tally("gcs.delivered", "delivered")
    tally("gcs.order.assignments", "ordered")
    tally("gcs.e2e.delay_s", "e2e")
    if not shards:
        if shard is not None:
            return [f"  (no series labelled shard={shard})"]
        return ["  (no shard-labelled series — single-group run)"]
    rows = []
    for which in sorted(shards):
        entry = shards[which]
        e2e = entry["e2e"]
        if e2e is not None and e2e.count:
            s = e2e.summary()
            latency = f"{_ms(s['p50'])}/{_ms(s['p95'])}/{_ms(s['p99'])}"
        else:
            latency = "-"
        rows.append([
            str(which), str(entry["mcast"]), str(entry["ordered"]),
            str(entry["delivered"]), latency,
        ])
    return format_table(
        ["shard", "multicasts", "ordered", "delivered", "e2e p50/p95/p99"],
        rows,
    )


def _merge_hist(a: "Histogram", b: "Histogram") -> "Histogram":
    """A fresh histogram holding *a* + *b* (same bounds assumed; used only
    for presentation, never fed back into a registry)."""
    from repro.obs.metrics import Histogram

    merged = Histogram(a.bounds)
    merged.counts = [x + y for x, y in zip(a.counts, b.counts)]
    merged.overflow = a.overflow + b.overflow
    merged.count = a.count + b.count
    merged.total = a.total + b.total
    for source in (a, b):
        if source.min is not None:
            merged.min = source.min if merged.min is None else min(merged.min, source.min)
        if source.max is not None:
            merged.max = source.max if merged.max is None else max(merged.max, source.max)
    return merged
