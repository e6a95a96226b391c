"""Figure 11 — job submission throughput (time to enqueue 10/50/100 jobs).

Paper: TORQUE 0.93/4.95/10.18 s; JOSHUA 1 head 1.32/6.48/14.08 s rising to
3.62/17.65/33.32 s at 4 heads — i.e. throughput cost scales linearly in
batch size and grows with head count, but "adding 100 jobs to the job
queue in 33 s for a 4 head node system is an acceptable trade-off".

The burst-offered-load companion compares the batched DATA pipeline off
vs. on (``test_figure11_burst_batching``) and refreshes the checked-in
``BENCH_fig11.json`` snapshot with the measured events/sec, bytes-on-wire
per committed command and per-type wire byte breakdown.
"""

import pathlib

from repro.bench.experiments.throughput import PAPER_FIGURE11, figure11
from repro.bench.reporting import format_table
from repro.bench.snapshots import figure_snapshots, write_snapshots
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import rpc_latency_lines

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_figure11_throughput(benchmark, report, metrics_snapshot):
    registry = MetricsRegistry()
    rows = benchmark.pedantic(
        figure11, kwargs={"registry": registry}, rounds=1, iterations=1,
    )
    columns = ["system", "heads"] + [
        c for c in rows[0] if c.startswith(("measured", "paper"))
    ]
    table = format_table(rows, columns)
    report(benchmark, "Figure 11: job submission throughput", table, rows)
    print("rpc conversations (per request type, all bursts pooled):")
    print("\n".join(rpc_latency_lines(registry)))
    metrics_snapshot(benchmark, registry)

    by_config = {(r["system"], r["heads"]): r for r in rows}
    # Linear in batch size: 100 jobs ~ 10x the 10-job time (sequential client).
    for config, row in by_config.items():
        ratio = row["measured_100_s"] / row["measured_10_s"]
        assert 8.0 <= ratio <= 12.0, (config, ratio)
    # Grows with head count for every batch size.
    for jobs in (10, 50, 100):
        series = [by_config[("JOSHUA/TORQUE", n)][f"measured_{jobs}_s"] for n in (1, 2, 3, 4)]
        assert series == sorted(series)
    # TORQUE beats JOSHUA at equal head count (replication is not free).
    assert (
        by_config[("TORQUE", 1)]["measured_100_s"]
        < by_config[("JOSHUA/TORQUE", 1)]["measured_100_s"]
    )
    # Absolute numbers within 2x of the paper everywhere.
    for (system, heads), paper_row in PAPER_FIGURE11.items():
        for jobs, paper_s in paper_row.items():
            measured = by_config[(system, heads)][f"measured_{jobs}_s"]
            assert 0.5 <= measured / paper_s <= 2.0, (system, heads, jobs, measured)
    # The paper's headline: 100 jobs on 4 heads in ~33 s.
    assert by_config[("JOSHUA/TORQUE", 4)]["measured_100_s"] < 50.0


def test_figure11_burst_batching(benchmark, report):
    """Burst offered load, batching pipeline off vs. on.

    Asserts the headline claim — ≥ 25 % fewer bytes on the wire per
    committed command with batching enabled — with the per-type breakdown
    evidencing fewer/larger DATA frames, and refreshes the checked-in
    ``BENCH_fig11.json`` snapshot (deterministic: simulated figures only).
    """
    payloads = benchmark.pedantic(
        figure_snapshots, args=("BENCH_fig11.json",), rounds=1, iterations=1,
    )
    result = payloads["BENCH_fig11.json"]
    rows = [result["unbatched"], result["batched"]]
    columns = ["batching", "heads", "jobs", "elapsed_s",
               "events_per_sim_s", "bytes_wire", "bytes_wire_per_command"]
    table = format_table(rows, columns)
    report(benchmark, "Figure 11 companion: burst offered load, batching "
           f"off vs on (reduction {result['reduction_pct']}%)", table, result)

    off, on = result["unbatched"], result["batched"]
    # Headline: >= 25% fewer wire bytes per committed command.
    assert result["reduction_pct"] >= 25.0, result
    # The wire evidence: the burst rides coalesced DATA frames — batch
    # frames carry most of the DATA bytes, per-frame overhead amortized.
    off_data = off["wire_bytes_by_type"].get("DataMsg", 0)
    on_plain = on["wire_bytes_by_type"].get("DataMsg", 0)
    on_batch = on["wire_bytes_by_type"].get("DataBatchMsg", 0)
    assert off["wire_bytes_by_type"].get("DataBatchMsg", 0) == 0
    assert on_batch > 0 and on_batch > on_plain
    assert on_plain + on_batch < off_data
    # Committed throughput did not regress: the burst finishes no slower.
    assert on["elapsed_s"] <= off["elapsed_s"] * 1.1

    write_snapshots(ROOT, payloads)
