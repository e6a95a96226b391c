"""pytest-benchmark configuration for the reproduction benches.

Every bench regenerates one of the paper's tables/figures inside the
deterministic simulator. pytest-benchmark times the *simulation run*
(useful as a performance regression guard); the scientific output — the
paper-vs-measured rows — is printed and attached to ``extra_info`` so it
lands in ``--benchmark-json`` exports.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

import pytest


def emit(benchmark, title: str, table: str, rows) -> None:
    """Print a result table and attach the rows to the benchmark record."""
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{table}\n")
    benchmark.extra_info["rows"] = rows


@pytest.fixture
def report():
    return emit


def snapshot_metrics(benchmark, registry, *, prefix: str = "") -> None:
    """Attach a MetricsRegistry snapshot to the benchmark record.

    One ``"metric"``-discriminated dict per series (the same shape the
    ``--jsonl`` CLI exports use), so ``--benchmark-json`` files carry the
    per-request-type RPC latency and per-phase job histograms alongside
    the paper-vs-measured rows.
    """
    from repro.obs.export import metric_records

    records = [
        r for r in metric_records(registry)
        if not prefix or r["name"].startswith(prefix)
    ]
    benchmark.extra_info["metrics"] = records


@pytest.fixture
def metrics_snapshot():
    return snapshot_metrics
