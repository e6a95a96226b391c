"""What ``repro trace`` and ``repro chaos run`` print, pinned byte for byte.

Both commands render their observer sections (rpc conversations, per-shard
pipeline, wire byte ledgers, busiest time series) through one helper, and
write their ``--jsonl`` exports from the collector and sampler. The SHA-256
of stdout, and of the JSONL where one is written, pins three fixed-seed
runs. Each runs in its own empty working directory with the relative path
``F``, so the ``wrote N records to F`` line is the same on every machine.
"""

import hashlib

import pytest

from repro.cli import main

RUNS = {
    "trace-rpc-jsonl": ["trace", "--seed", "7", "--jobs", "2", "--rpc",
                        "--jsonl", "F"],
    "trace-shard": ["trace", "--seed", "7", "--jobs", "2", "--shards", "2",
                    "--shard", "1"],
    "chaos-read-mix-jsonl": ["chaos", "run", "--seed", "0", "--read-mix",
                             "0.5", "--jsonl", "F"],
}

DIGESTS = {
    "trace-rpc-jsonl": {
        "stdout": "cc54eafee4e5b18f5085da7c4872cb6080341ae77707eecd5337957dd31f1ee3",
        "jsonl": "4eb9c31b2f28bc2912c563ee9576bbe3722615743c1cce5a03efdaee46ffc982",
    },
    "trace-shard": {
        "stdout": "969df95ed4442c23e2fc986e3802c6f938ea143c714efba32e4059266e32126f",
    },
    "chaos-read-mix-jsonl": {
        "stdout": "bfee52b3091e2b14a4f9b03ca1795136266bf8d5ace0b711f185b1620fe01dc2",
        "jsonl": "ac09f686f2f11e999977bee7d25c3696aa193f63a8d6d007cf74143ba7f85e7d",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_cli_output_is_byte_identical(run, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(RUNS[run]) == 0
    digests = {"stdout": _sha(capsys.readouterr().out.encode())}
    if "--jsonl" in RUNS[run]:
        digests["jsonl"] = _sha((tmp_path / "F").read_bytes())
    assert digests == DIGESTS[run]
