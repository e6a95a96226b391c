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
:meth:`~TimeSeriesSampler.records` yields ``type="timeseries"`` JSONL
records for the ``--jsonl`` exports, and :func:`top_table` renders them as
the ``repro top``-style end-of-run table.

**Passivity.** Sampling is plain arithmetic over plain containers on an
existing hook; no events are scheduled, no RNG drawn, no wire bytes added.
``tests/integration/test_obs_passive.py`` holds runs with the sampler
attached to bit-identical wire traces.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
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
    "top_table",
]

def _series_label(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


#: A window closes once ``now / window`` passes the next whole number. The
#: fast path compares ``now`` against a boundary moved down by this relative
#: margin, so float rounding in ``(index + 1) * window`` can only make it
#: check the division early, never miss a close.
_BOUNDARY_MARGIN = 1e-9

#: What a window close compares per series to see whether it changed: a
#: counter's or gauge's value, a histogram's observation count.
_MARK = {
    Counter: attrgetter("value"),
    Gauge: attrgetter("value"),
    Histogram: attrgetter("count"),
}
#: A series' mark before its first close. A gauge's compares unequal to
#: any value, so its first close always samples it.
_START = {Counter: 0, Gauge: None, Histogram: 0}


class TimeSeriesSampler:
    """Per-window samples of every series in one metrics registry."""

    #: Sampling window (simulated seconds), read at every window close.
    window = 1.0

    #: Cap on samples kept — one per series per window it changed in
    #: (oldest shed first), read at every window close.
    max_samples = 10_000

    def __init__(self, registry: "MetricsRegistry"):
        self.registry = registry
        #: Closed-window samples, in time order, held compact: ``(window
        #: index, registry key, kind, *values)``; :meth:`records` formats
        #: them. Values are ``(delta,)`` for a counter, ``(value,)`` for a
        #: gauge and ``(bounds, state before, state after, max)`` for a
        #: histogram, a state being ``(counts, overflow, count, total)``.
        self.samples: deque[tuple] = deque()
        #: Samples shed past :attr:`max_samples` (oldest-first eviction).
        self.dropped_samples = 0
        #: Index of the window currently being accumulated.
        self._window_index = 0
        #: ``now`` at which the accumulating window may have ended (0.0:
        #: check at the first tick, whatever the window length).
        self._next_close = 0.0
        #: ``(key, metric, mark getter)`` per registry series, sorted by
        #: key; rebuilt only when the registry has grown.
        self._series: list[tuple] = []
        #: Each series' mark at the last close, in ``_series`` order.
        self._marks: list = []
        #: Histogram key -> its state at its last sample.
        self._states: dict[tuple, tuple] = {}

    # -- feed side (kernel on_advance hook) ---------------------------------

    def on_advance(self, now: float) -> None:
        if now >= self._next_close:
            index = int(now / self.window)
            if index > self._window_index:
                self._close_through(index)
            self._next_close = (
                (self._window_index + 1) * self.window * (1 - _BOUNDARY_MARGIN)
            )

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

    def _track(self) -> None:
        """Re-read the registry's series (it only ever grows)."""
        metrics = self.registry._metrics
        marks = {key: mark for (key, _, _), mark in zip(self._series, self._marks)}
        self._series = [
            (key, metrics[key], _MARK[type(metrics[key])])
            for key in sorted(metrics)
        ]
        self._marks = [
            marks.get(key, _START[type(metric)])
            for key, metric, _ in self._series
        ]

    def _sample(self, index: int) -> None:
        if len(self.registry._metrics) != len(self._series):
            self._track()
        series, last = self._series, self._marks
        marks = [mark(metric) for _, metric, mark in series]
        changed = [
            position
            for position, (now, before) in enumerate(zip(marks, last))
            if now != before
        ]
        samples = self.samples
        for position in changed:
            key, metric, _ = series[position]
            if type(metric) is Counter:
                samples.append((index, key, "counter",
                                marks[position] - last[position]))
            elif type(metric) is Gauge:
                samples.append((index, key, "gauge", marks[position]))
            else:
                before = self._states.get(key) or (
                    (0,) * len(metric.bounds), 0, 0, 0.0)
                after = self._states[key] = (
                    tuple(metric.counts), metric.overflow, metric.count,
                    metric.total,
                )
                samples.append((index, key, "histogram", metric.bounds,
                                before, after, metric.max))
        self._marks = marks
        excess = len(samples) - self.max_samples
        if excess > 0:
            for _ in range(excess):
                samples.popleft()
            self.dropped_samples += excess

    # -- read side -----------------------------------------------------------

    def _record(self, sample: tuple) -> dict:
        index, (name, labels), kind, *values = sample
        start = index * self.window
        end = start + self.window
        record = {
            "type": "timeseries",
            "time": end,
            "window_start": start,
            "window_end": end,
            "name": name,
            "labels": dict(labels),
            "metric": kind,
        }
        if kind == "counter":
            [delta] = values
            record.update(value=delta, rate=delta / self.window)
        elif kind == "gauge":
            record["value"] = values[0]
        else:
            bounds, before, after, maximum = values
            counts0, overflow0, count0, total0 = before
            counts, overflow, count, total = after
            dcounts = [c - p for c, p in zip(counts, counts0)]
            dcount = count - count0
            record["count"] = dcount
            record["mean"] = (total - total0) / dcount
            for p in (50, 95, 99):
                record[f"p{p}"] = percentile_from_counts(
                    bounds, dcounts, overflow - overflow0, dcount, p,
                    maximum=maximum)
        return record

    def records(self) -> list[dict]:
        """JSONL-ready records (``type="timeseries"``), closing the
        in-progress window first."""
        self.finish()
        return [self._record(sample) for sample in self.samples]


#: Rows :func:`top_table` shows.
TOP_ROWS = 12


def top_table(records: list[dict], *, shard: int | None = None) -> list[str]:
    """A ``repro top``-style table of ``type="timeseries"`` records: the
    :data:`TOP_ROWS` busiest series, one row each, with total / peak-window
    / last-window activity. With *shard*, only series carrying that
    ``shard=`` label are shown (the CLI ``--shard`` filter)."""
    agg: dict[str, dict] = {}
    for sample in records:
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
        return ["  (no time-series samples)"]
    busiest = sorted(
        agg.values(), key=lambda e: (-e["total"], e["series"])
    )[:TOP_ROWS]
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
    )


# -- attachment ------------------------------------------------------------


def attach_timeseries(network: "Network") -> TimeSeriesSampler:
    """Attach (or return the already-attached) time-series sampler.

    Ensures a collector is attached and hangs the sampler on it as
    ``collector.sampler`` (the sampler reads its registry), and registers
    the kernel tick hook.
    """
    collector = attach_collector(network)
    if collector.sampler is not None:
        return collector.sampler
    sampler = collector.sampler = TimeSeriesSampler(collector.registry)
    network.kernel.on_advance.append(sampler.on_advance)
    return sampler
