"""Shard scaling extension — committed-commands/sec vs. ordering shards.

Not a paper figure: JOSHUA runs one Transis group end to end. The sharded
deployment (PROTOCOLS.md §10) splits the job namespace by PBS queue across
co-hosted GCS groups, so this bench measures the two claims that justify
it — aggregate commit throughput rises monotonically with the shard
count, and killing one shard's sequencer leaves the other shard's commit
stream undisturbed — and refreshes the checked-in
``BENCH_shard_scaling.json`` snapshot (deterministic: simulated figures
only).
"""

import pathlib

from repro.bench.reporting import format_table
from repro.bench.snapshots import figure_snapshots, write_snapshots

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_shard_scaling_throughput(benchmark, report):
    """The same 48-job concurrent burst at shards = 1/2/4 on 4 heads.

    Asserts the headline claim: aggregate committed commands/sec is
    monotonically increasing in the shard count, and every burst commits
    every command with the load evenly striped across shards.
    """
    payloads = benchmark.pedantic(
        figure_snapshots, args=("BENCH_shard_scaling.json",),
        rounds=1, iterations=1,
    )
    result = payloads["BENCH_shard_scaling.json"]
    rows = result["scaling"]
    columns = ["shards", "heads", "jobs", "elapsed_s", "committed",
               "committed_per_s"]
    table = format_table(rows, columns)
    report(benchmark, "Shard scaling: burst commit throughput vs shards",
           table, result)
    kill = result["sequencer_kill"]
    windows = kill["windows"]
    print(
        f"sequencer kill (victim {kill['victim_sequencer']}, shard 1 "
        f"fails over to {kill['new_shard1_sequencer']}):"
    )
    for name in ("before", "sequencer_dead", "after_failover"):
        rates = windows[name]["committed_per_s"]
        print(f"  {name:>15}: per-shard committed/s {rates}")

    # Monotonic scaling: each doubling of shards raises aggregate
    # committed/sec — the single total order is the serialization point.
    series = [row["committed_per_s"] for row in rows]
    assert series == sorted(series) and len(set(series)) == len(series), series
    for row in rows:
        assert row["committed"] == row["jobs"], row  # nothing lost
        spread = row["per_shard_committed"]
        assert max(spread) - min(spread) <= 1, row  # evenly striped

    # Fault isolation: while shard 1's sequencer is dead (before the view
    # change), shard 0 keeps committing at steady-state rate; shard 1 is
    # fully stalled, then both run at full rate after failover.
    before, dead, after = (
        windows["before"], windows["sequencer_dead"], windows["after_failover"]
    )
    assert dead["committed"][1] == 0, dead
    assert dead["committed_per_s"][0] >= 0.7 * before["committed_per_s"][0]
    assert after["committed"][0] > 0 and after["committed"][1] > 0, after
    assert kill["new_shard1_sequencer"] != kill["victim_sequencer"]

    write_snapshots(ROOT, payloads)
