"""Passive metrics: counters, gauges and fixed-bucket histograms.

The :class:`MetricsRegistry` is the numeric half of the observability layer
(:mod:`repro.obs`): protocol hooks feed it per-event increments and latency
observations, keyed by metric *name* plus a small label set (request type,
node, ordering engine, …). Everything here is plain Python arithmetic on
plain containers — no simulation events, no RNG, no I/O — so attaching a
registry to a running simulation cannot perturb it (the passivity contract
enforced by ``tests/integration/test_obs_passive.py``).

Histograms use fixed upper-bound buckets (Prometheus-style): observations
land in the first bucket whose bound is >= the value, with an implicit
+Inf overflow bucket. Percentiles reported by :meth:`Histogram.summary` are
interpolated inside the target bucket and clamped to the observed min/max
(:func:`percentile_from_counts`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "ATTEMPT_BUCKETS",
    "percentile_from_counts",
]

#: Default latency buckets (seconds): 1 ms .. 10 s, roughly log-spaced.
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Buckets for attempt/retry counts.
ATTEMPT_BUCKETS = (1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 16.0)


def percentile_from_counts(
    bounds: tuple,
    counts,
    overflow: int,
    count: int,
    p: float,
    *,
    minimum: float | None = None,
    maximum: float | None = None,
) -> float:
    """The *p*-th percentile (``0 < p <= 100``) estimated from fixed-bucket
    counts, with linear interpolation inside the target bucket.

    This is the one shared implementation behind
    :meth:`Histogram.percentile` and the per-window percentiles of the
    time-series sampler (which feeds it bucket-count *deltas*). It
    interpolates between the bucket's lower and upper bound by the rank's
    position within the bucket, clamped to the observed ``minimum`` /
    ``maximum`` when known — strictly better than reporting the bucket's
    upper bound, from the same data.
    """
    if count <= 0:
        return 0.0
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    target = p / 100.0 * count
    cumulative = 0
    for index, upper in enumerate(bounds):
        bucket = counts[index]
        cumulative += bucket
        if cumulative >= target:
            lower = bounds[index - 1] if index > 0 else 0.0
            if bucket > 0:
                # Rank position inside this bucket, in (0, 1].
                fraction = (target - (cumulative - bucket)) / bucket
                value = lower + (upper - lower) * fraction
            else:  # pragma: no cover - cumulative only grows on non-empty
                value = upper
            if minimum is not None:
                value = max(value, minimum)
            if maximum is not None:
                value = min(value, maximum)
            return value
    # Target rank lies in the +Inf overflow bucket: the honest point
    # estimate is the observed maximum, falling back to the top bound.
    if maximum is not None:
        return maximum
    return bounds[-1] if bounds else 0.0


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self) -> None:
        self.value += 1

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value (queue depths, cursors, backlog sizes)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max sidecars."""

    __slots__ = ("bounds", "counts", "overflow", "count", "total", "min", "max")

    def __init__(self, buckets: Iterable[float] = LATENCY_BUCKETS) -> None:
        self.bounds = tuple(sorted(buckets))
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # The first bound >= value, found by bisection.
        index = bisect_left(self.bounds, value)
        if index < len(self.counts):
            self.counts[index] += 1
        else:
            self.overflow += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The *p*-th percentile (``0 < p <= 100``), linearly interpolated
        within the target bucket and clamped to the observed min/max."""
        return percentile_from_counts(
            self.bounds, self.counts, self.overflow, self.count, p,
            minimum=self.min, maximum=self.max,
        )

    def summary(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "buckets": {str(b): c for b, c in zip(self.bounds, self.counts)},
            "overflow": self.overflow,
            **self.summary(),
        }


class MetricsRegistry:
    """Name + labels -> metric instance, one registry per collector.

    A registry is independent of any simulation: it can be shared across
    back-to-back runs (the benches do, to accumulate per-phase numbers over
    every trial) or created fresh per run (the chaos harness does, so each
    report's numbers are self-contained).
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple, object] = {}

    @staticmethod
    def _key(name: str, labels: dict) -> tuple:
        return (name, tuple(sorted(labels.items())))

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(name, labels, Gauge)

    def histogram(self, name: str, *, buckets=LATENCY_BUCKETS, **labels) -> Histogram:
        key = self._key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = Histogram(buckets)
        return metric  # type: ignore[return-value]

    def _get_or_create(self, name: str, labels: dict, cls):
        key = self._key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls()
        return metric

    # -- read side -----------------------------------------------------------

    def find(self, name: str) -> list[tuple[dict, object]]:
        """All (labels, metric) pairs registered under *name*."""
        return sorted(
            ((dict(key[1]), metric) for key, metric in self._metrics.items()
             if key[0] == name),
            key=lambda pair: sorted(pair[0].items()),
        )

    def snapshot(self) -> list[dict]:
        """JSON-serialisable dump: one record per (name, labels) series."""
        out = []
        for key in sorted(self._metrics, key=lambda k: (k[0], k[1])):
            name, labels = key
            record = {"name": name, "labels": dict(labels)}
            record.update(self._metrics[key].snapshot())  # type: ignore[attr-defined]
            out.append(record)
        return out
