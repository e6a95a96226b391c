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

from repro.obs.collector import TraceCollector, attach_collector, collector_of
from repro.obs.recorder import FlightRecorder, attach_recorder
from repro.obs.timeseries import TimeSeriesSampler, attach_timeseries

__all__ = [
    "TraceCollector",
    "attach_collector",
    "collector_of",
    "FlightRecorder",
    "attach_recorder",
    "TimeSeriesSampler",
    "attach_timeseries",
]
