"""The committed ``BENCH_*.json`` figure files, regenerated.

Every column is simulated time or a count, so each file regenerates
byte-identically from the tree that committed it. The arguments live here,
once: the ``benchmarks/bench_*.py`` wrappers assert their claims on these
payloads and refresh the files; a tier-1 test compares the regeneration
with the committed bytes (``BENCH_fig11.json`` once sat stale for nine PRs).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.experiments.head_scaling import head_scaling
from repro.bench.experiments.read_scaling import read_scaling
from repro.bench.experiments.sharding import sequencer_kill, shard_scaling
from repro.bench.experiments.throughput import burst_batching_ablation

__all__ = ["FIGURE_FILES", "figure_snapshots", "snapshot_text", "write_snapshots"]

#: file name -> the run that produces its payload.
FIGURE_FILES = {
    "BENCH_fig11.json": lambda: burst_batching_ablation(heads=3, jobs=50, seed=1),
    "BENCH_shard_scaling.json": lambda: {
        "scaling": shard_scaling(shard_counts=(1, 2, 4), jobs=48, seed=1),
        "sequencer_kill": sequencer_kill(shards=2, heads=3, seed=1),
    },
    "BENCH_read_scaling.json": lambda: read_scaling(
        head_counts=(1, 2, 4), duration=10.0, read_rate=400.0,
        write_rate=5.0, consistency="ryw", seed=1,
    ),
    "BENCH_head_scaling.json": lambda: head_scaling(
        figure10_heads=(1, 2, 3, 4, 6, 8, 12, 16), stress_heads=(2, 4, 8, 16),
        seed=1,
    ),
}


def figure_snapshots(*names: str) -> dict[str, dict]:
    """``{file name: payload}`` for the named figure files (default: all)."""
    return {name: FIGURE_FILES[name]() for name in names or FIGURE_FILES}


def snapshot_text(payload: dict) -> str:
    """A payload exactly as it is committed."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_snapshots(root: Path, payloads: dict[str, dict]) -> None:
    for name, payload in payloads.items():
        (root / name).write_text(snapshot_text(payload))
