"""repro.obs — the passive observability layer.

Sits between ``rpc`` and ``gcs`` in the import-layering contract
(``util → sim → net → rpc → obs → gcs → pbs → joshua``): it consumes the
RPC substrate's hook points and is consumed by the stacks above, which call
into an attached :class:`TraceCollector` — or skip one attribute read when
none is attached (:func:`collector_of` returning ``None``).

Guarantee: observation is *passive*. Attaching the collector and registry
to a simulation changes no event ordering, draws no randomness, and adds
no wire bytes; `tests/integration/test_obs_passive.py` holds the layer to
bit-identical traces.
"""

from repro.obs.collector import (
    TraceCollector,
    attach_collector,
    collector_of,
)
from repro.obs.events import PHASE_EDGES, PHASE_ORDER, JobTrace, TraceEvent
from repro.obs.export import (
    collector_records,
    merged_records,
    metric_records,
    write_jsonl,
)
from repro.obs.metrics import (
    ATTEMPT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile_from_counts,
)
from repro.obs.recorder import (
    FlightRecorder,
    attach_recorder,
    read_bundle,
    timeline_lines,
    write_bundle,
)
from repro.obs.report import (
    job_timeline_lines,
    phase_breakdown_lines,
    rpc_latency_lines,
    shard_breakdown_lines,
    wire_bytes_lines,
)
from repro.obs.timeseries import (
    TimeSeriesSampler,
    attach_timeseries,
)

__all__ = [
    "TraceCollector",
    "attach_collector",
    "collector_of",
    "TraceEvent",
    "JobTrace",
    "PHASE_EDGES",
    "PHASE_ORDER",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "ATTEMPT_BUCKETS",
    "merged_records",
    "metric_records",
    "collector_records",
    "write_jsonl",
    "job_timeline_lines",
    "phase_breakdown_lines",
    "rpc_latency_lines",
    "wire_bytes_lines",
    "shard_breakdown_lines",
    "percentile_from_counts",
    "FlightRecorder",
    "attach_recorder",
    "timeline_lines",
    "write_bundle",
    "read_bundle",
    "TimeSeriesSampler",
    "attach_timeseries",
]
