"""Benchmark harness: regenerates every table and figure in the paper.

Each experiment module builds the system under test, drives a workload,
and returns structured rows directly comparable to the paper's figures.
``python -m repro figure10`` (and the other figure commands) print them,
``tools/golden.py`` pins the committed ones byte for byte and
``tests/integration/test_figure_claims.py`` asserts their claims;
EXPERIMENTS.md records the comparison.

Experiment index
----------------
=================  ======================================================
Figure 10          :func:`repro.bench.experiments.latency.figure10`
Figure 11          :func:`repro.bench.experiments.throughput.figure11`
Figure 12          :func:`repro.bench.experiments.availability.figure12`
HA model compare   :func:`repro.bench.experiments.models.compare_models`
Ablations          :mod:`repro.bench.experiments.ablations`
=================  ======================================================
"""

from repro.bench.workloads import (
    BurstWorkload,
    OpenLoopRequest,
    OpenLoopWorkload,
    PoissonWorkload,
    TraceWorkload,
)
from repro.bench.reporting import format_table

__all__ = [
    "BurstWorkload",
    "OpenLoopRequest",
    "OpenLoopWorkload",
    "PoissonWorkload",
    "TraceWorkload",
    "format_table",
]
