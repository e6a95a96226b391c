"""Read-path scaling extension — local-read QPS vs. head count.

Not a paper figure: the paper's jstat rides the ordered command stream.
The local read path (PROTOCOLS.md §12) answers status queries from the
receiving head's own replica, so read capacity grows with the head count
while the write path keeps the single total order. An open-loop front-end
(:class:`~repro.bench.workloads.OpenLoopWorkload`) offers the identical
read/write mix at 1/2/4 heads through a client gateway; this bench
asserts the two headline claims (≥2× read QPS from 1→4 heads, write
throughput within 10 % of the write-only baseline) and refreshes the
checked-in ``BENCH_read_scaling.json`` snapshot (deterministic: simulated
figures only).
"""

import pathlib

from repro.bench.reporting import format_table
from repro.bench.snapshots import figure_snapshots, write_snapshots

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_read_scaling_qps(benchmark, report):
    """The same open-loop mix (400 reads/s + 5 writes/s, 100 clients) at
    heads = 1/2/4.

    Asserts: completed read QPS at 4 heads ≥ 2× the 1-head figure; every
    mixed run commits writes within 10 % of its write-only baseline; no
    read fails outright.
    """
    payloads = benchmark.pedantic(
        figure_snapshots, args=("BENCH_read_scaling.json",),
        rounds=1, iterations=1,
    )
    result = payloads["BENCH_read_scaling.json"]
    rows = result["rows"]
    columns = ["heads", "offered_read_per_s", "read_qps", "reads_local",
               "reads_fallback", "write_committed_per_s",
               "write_only_committed_per_s", "write_ratio"]
    table = format_table(rows, columns)
    report(benchmark, "Read scaling: local-read QPS vs head count",
           table, result)

    by_heads = {row["heads"]: row for row in rows}
    assert result["read_qps_speedup"] >= 2.0, result["read_qps_speedup"]
    assert by_heads[4]["read_qps"] >= 2.0 * by_heads[1]["read_qps"], rows
    for row in rows:
        assert row["reads_failed"] == 0, row
        assert 0.9 <= row["write_ratio"] <= 1.1, row
        # The point of the read path: local answers, not ordered detours.
        assert row["reads_local"] >= row["reads_fallback"], row
    # Read QPS never degrades as heads are added.
    qps = [row["read_qps"] for row in rows]
    assert qps == sorted(qps), qps

    write_snapshots(ROOT, payloads)
