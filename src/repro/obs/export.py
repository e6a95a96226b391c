"""JSONL export: one machine-readable stream for spans, logs and metrics.

Every record is a single JSON object per line with a ``type`` discriminator:
``"span"`` (:class:`~repro.obs.events.TraceEvent`), ``"log"``
(:class:`~repro.util.simlog.LogRecord`), ``"job"`` (a whole
:class:`~repro.obs.events.JobTrace`) or ``"metric"`` (one registry series).
Spans and logs share the ``time`` field, so :func:`merged_records`
interleaves them into one causally ordered stream — the format the
``repro trace --jsonl`` and ``repro chaos --jsonl`` surfaces emit.

Values that are not JSON-native (addresses, message ids) are rendered with
``repr`` rather than rejected: an export must never fail because a protocol
grew a new field type.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.collector import TraceCollector
    from repro.util.simlog import SimLogger

__all__ = [
    "dumps_record",
    "merged_records",
    "metric_records",
    "collector_records",
    "write_jsonl",
]


def dumps_record(record: dict) -> str:
    """One JSONL line (non-native values degrade to their ``repr``)."""
    return json.dumps(record, sort_keys=True, default=repr)


def merged_records(
    collector: "TraceCollector | None" = None,
    logger: "SimLogger | None" = None,
) -> list[dict]:
    """Spans and log records merged into one time-ordered stream.

    Python's sort is stable, so records carrying the same timestamp keep
    their per-source order (spans before logs, matching append order within
    one simulation step closely enough for reading).
    """
    records: list[dict] = []
    if collector is not None:
        records.extend(e.to_dict() for e in collector.events)
    if logger is not None:
        records.extend(r.to_dict() for r in logger.records)
    records.sort(key=lambda r: r["time"])
    return records


def metric_records(registry) -> list[dict]:
    """One ``"metric"``-discriminated record per registry series.

    The registry snapshot's own ``type`` field (counter/gauge/histogram)
    is demoted to ``metric`` so the top-level discriminator stays uniform
    across the whole JSONL stream.
    """
    out = []
    for series in registry.snapshot():
        record = dict(series)
        record["metric"] = record.pop("type")
        record["type"] = "metric"
        out.append(record)
    return out


def collector_records(
    collector: "TraceCollector", logger: "SimLogger | None" = None
) -> list[dict]:
    """The full export of one observed run: merged span/log stream, then
    per-job trace summaries, then the metrics snapshot."""
    records = merged_records(collector, logger)
    records.extend(t.to_dict() for t in collector.job_traces())
    records.extend(metric_records(collector.registry))
    return records


def write_jsonl(path, records: Iterable[dict]) -> int:
    """Write *records* to *path*; returns the number of lines written."""
    lines = [dumps_record(r) for r in records]
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines)
