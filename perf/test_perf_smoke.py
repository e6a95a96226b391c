"""Smoke test of the benchmark itself (``pytest perf/``; not part of tier-1).

``--quick`` scale — about a fifth of each workload, two repeats — must
finish in under a minute, emit every metric ``BENCHMARK.json`` names, and
pass the correctness gate (a failed gate exits non-zero with no result
line).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_quick(*extra: str) -> tuple[dict, float]:
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--quick", *extra],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1]), time.monotonic() - started


def test_quick_end_to_end_emits_every_metric_within_a_minute():
    line, wall = run_quick()
    assert wall < 60, f"--quick took {wall:.1f}s"
    assert line["correct"] is True and line["failed"] == 0
    expected = {
        f"{workload}/{metric['name']}"
        for workload in WORKLOADS for metric in SPEC["end_to_end"]
    }
    assert set(line["metrics"]) == expected
    for name, cell in line["metrics"].items():
        assert cell["value"] > 0, f"{name} is {cell['value']}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_traced_pass_emits_the_whole_ledger(workload):
    line, _ = run_quick("--workload", workload, "--trace", "1")
    assert line["correct"] is True
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    trace = json.loads((ROOT / "perf" / "out" / f"trace-{workload}.json").read_text())
    spans = trace["spans"]
    assert len(spans["name"]) == len(spans["start_ns"]) == len(spans["parent"]) > 0
