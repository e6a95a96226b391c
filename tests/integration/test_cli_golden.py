"""What ``repro trace`` and ``repro chaos run`` print, pinned byte for byte.

Both commands render their observer sections (rpc conversations, per-shard
pipeline, wire byte ledgers, busiest time series) through one helper, and
write their ``--jsonl`` exports from the collector and sampler. The SHA-256
of stdout, and of the JSONL where one is written, pins three fixed-seed
runs (``golden.CLI_RUNS``; ``"cli"`` in ``tests/data/golden_digests.json``).
Each runs in its own empty working directory with the relative path ``F``,
so the ``wrote N records to F`` line is the same on every machine. The
runs are the ``golden_digests`` entry's own, made once per session.
"""

import json

import pytest

import golden


@pytest.mark.parametrize("run", sorted(golden.CLI_RUNS))
def test_cli_output_is_byte_identical(run):
    fresh = json.loads(golden.produce("golden_digests"))["cli"][run]
    assert fresh == golden.committed("golden_digests")["cli"][run]
