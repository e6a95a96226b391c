"""Windowed time-series sampling of the metrics registry.

A :class:`TimeSeriesSampler` rides the kernel's ``on_advance`` hook: every
time the clock crosses a window boundary (default 1 simulated second) it
closes the window and records, for every active series in the registry,

* **counters** — the per-window increment (a rate, once divided by the
  window length);
* **gauges** — the value at the window close;
* **histograms** — the per-window observation count, mean, and
  p50 / p95 / p99 estimated from the window's *bucket-count deltas* (the
  shared :func:`~repro.obs.metrics.percentile_from_counts` estimator), so
  tail latency is time-resolved rather than a whole-run aggregate.

Series keep their registry labels, so per-head (``node=``) and per-shard
(``shard=``) resolution falls out for free. Read-side surfaces:
:meth:`top_lines` is the ``repro top``-style end-of-run table, and
:meth:`records` yields ``type="timeseries"`` JSONL records for the
``--jsonl`` exports.

**Passivity.** Sampling is plain arithmetic over plain containers on an
existing hook; no events are scheduled, no RNG drawn, no wire bytes added.
``tests/integration/test_obs_passive.py`` holds runs with the sampler
attached to bit-identical wire traces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.collector import attach_collector
from repro.obs.metrics import Counter, Gauge, Histogram, percentile_from_counts
from repro.obs.report import format_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "TimeSeriesSampler",
    "attach_timeseries",
    "timeseries_of",
]

def _series_label(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class TimeSeriesSampler:
    """Per-window samples of every series in one metrics registry."""

    #: Sampling window (simulated seconds), read at every tick.
    window = 1.0

    #: Cap on closed windows kept (oldest samples drop first), read at
    #: every window close.
    max_windows = 10_000

    def __init__(self, registry: "MetricsRegistry"):
        self.registry = registry
        #: Closed-window samples, in time order. Each is a dict:
        #: ``{"type": "timeseries", "window_start", "window_end", "name",
        #: "labels", "metric", ...metric-specific values}``.
        self.samples: list[dict] = []
        #: Samples shed past :attr:`max_windows` (oldest-first eviction).
        self.dropped_samples = 0
        #: Index of the window currently being accumulated.
        self._window_index = 0
        #: Per-series cumulative state at the last window close.
        self._counter_last: dict[tuple, int] = {}
        self._hist_last: dict[tuple, tuple] = {}
        self._gauge_last: dict[tuple, float] = {}

    # -- feed side (kernel on_advance hook) ---------------------------------

    def on_advance(self, now: float) -> None:
        index = int(now / self.window)
        if index > self._window_index:
            self._close_through(index)

    def _close_through(self, index: int) -> None:
        """Close the accumulating window (empty intermediate windows produce
        no samples — a quiet simulation costs nothing)."""
        self._sample(self._window_index)
        self._window_index = index

    def finish(self) -> None:
        """Close the in-progress window (call at end of run, before
        reading); safe to call repeatedly — the delta bookkeeping means a
        repeated close with no new activity emits nothing."""
        self._sample(self._window_index)

    def _sample(self, index: int) -> None:
        start = index * self.window
        end = start + self.window
        for key in sorted(self.registry._metrics, key=lambda k: (k[0], k[1])):
            metric = self.registry._metrics[key]
            name, labels = key[0], dict(key[1])
            if isinstance(metric, Counter):
                last = self._counter_last.get(key, 0)
                delta = metric.value - last
                if delta == 0:
                    continue
                self._counter_last[key] = metric.value
                self._emit(start, end, name, labels, "counter",
                           value=delta, rate=delta / self.window)
            elif isinstance(metric, Gauge):
                last = self._gauge_last.get(key)
                if last is not None and last == metric.value:
                    continue
                self._gauge_last[key] = metric.value
                self._emit(start, end, name, labels, "gauge",
                           value=metric.value)
            elif isinstance(metric, Histogram):
                prev = self._hist_last.get(
                    key, ((0,) * len(metric.bounds), 0, 0, 0.0)
                )
                prev_counts, prev_overflow, prev_count, prev_total = prev
                dcount = metric.count - prev_count
                if dcount == 0:
                    continue
                dcounts = tuple(
                    c - p for c, p in zip(metric.counts, prev_counts)
                )
                doverflow = metric.overflow - prev_overflow
                dtotal = metric.total - prev_total
                self._hist_last[key] = (
                    tuple(metric.counts), metric.overflow,
                    metric.count, metric.total,
                )
                self._emit(
                    start, end, name, labels, "histogram",
                    count=dcount,
                    mean=dtotal / dcount,
                    p50=percentile_from_counts(
                        metric.bounds, dcounts, doverflow, dcount, 50,
                        maximum=metric.max,
                    ),
                    p95=percentile_from_counts(
                        metric.bounds, dcounts, doverflow, dcount, 95,
                        maximum=metric.max,
                    ),
                    p99=percentile_from_counts(
                        metric.bounds, dcounts, doverflow, dcount, 99,
                        maximum=metric.max,
                    ),
                )

    def _emit(self, start, end, name, labels, metric_kind, **values) -> None:
        if len(self.samples) >= self.max_windows:
            del self.samples[0]
            self.dropped_samples += 1
        self.samples.append({
            "type": "timeseries",
            "time": end,
            "window_start": start,
            "window_end": end,
            "name": name,
            "labels": labels,
            "metric": metric_kind,
            **values,
        })

    # -- read side -----------------------------------------------------------

    def records(self) -> list[dict]:
        """JSONL-ready records (``type="timeseries"``), closing the
        in-progress window first."""
        self.finish()
        return list(self.samples)

    def top_lines(
        self,
        *,
        limit: int = 12,
        indent: str = "  ",
        shard: int | None = None,
    ) -> list[str]:
        """A ``repro top``-style table: the busiest series, one row each,
        with total / peak-window / last-window activity. With *shard*,
        only series carrying that ``shard=`` label are shown (the CLI
        ``--shard`` filter)."""
        self.finish()
        agg: dict[str, dict] = {}
        for sample in self.samples:
            if shard is not None and sample["labels"].get("shard") != shard:
                continue
            series = _series_label(sample["name"], sample["labels"])
            entry = agg.get(series)
            if entry is None:
                entry = agg[series] = {
                    "series": series, "metric": sample["metric"],
                    "windows": 0, "total": 0.0, "peak": 0.0, "last": 0.0,
                    "p99": 0.0,
                }
            entry["windows"] += 1
            weight = sample.get("value", sample.get("count", 0.0))
            entry["total"] += weight
            entry["peak"] = max(entry["peak"], weight)
            entry["last"] = weight
            if "p99" in sample:
                entry["p99"] = max(entry["p99"], sample["p99"])
        if not agg:
            return [indent + "(no time-series samples)"]
        busiest = sorted(
            agg.values(), key=lambda e: (-e["total"], e["series"])
        )[:limit]
        rows = []
        for entry in busiest:
            p99 = f"{entry['p99'] * 1000.0:.1f}ms" if entry["p99"] else "-"
            rows.append([
                entry["series"], entry["metric"], str(entry["windows"]),
                f"{entry['total']:g}", f"{entry['peak']:g}",
                f"{entry['last']:g}", p99,
            ])
        return format_table(
            ["series", "kind", "windows", "total", "peak/w", "last/w",
             "max p99"],
            rows,
            indent=indent,
        )


# -- attachment ------------------------------------------------------------


def attach_timeseries(network: "Network") -> TimeSeriesSampler:
    """Attach (or return the already-attached) time-series sampler.

    Ensures a collector is attached (the sampler reads its registry) and
    registers the kernel tick hook.
    """
    existing = timeseries_of(network)
    if existing is not None:
        return existing
    sampler = TimeSeriesSampler(attach_collector(network).registry)
    network.kernel.on_advance.append(sampler.on_advance)
    network._obs_timeseries = sampler
    return sampler


def timeseries_of(network: "Network") -> TimeSeriesSampler | None:
    """The sampler attached to *network*, or ``None``."""
    return getattr(network, "_obs_timeseries", None)
