"""Head-count scaling extension — Figure 10 past four heads.

Not a paper figure: the paper's Figure 10 stops at four heads with a
"roughly constant increment per head". This bench extends the paper's own
measurement to 16 heads and runs a stress probe (a login-node client, 40
sequential short jobs, an idle drain) at 2/4/8/16 heads, asserts the shape —
every column grows with the head count, and a jsub at 16 heads stays under
a second — and refreshes the checked-in ``BENCH_head_scaling.json``
snapshot (deterministic: simulated figures and counts only).
"""

import pathlib

from repro.bench.reporting import format_table
from repro.bench.snapshots import figure_snapshots, write_snapshots

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_head_scaling(benchmark, report):
    payloads = benchmark.pedantic(
        figure_snapshots, args=("BENCH_head_scaling.json",),
        rounds=1, iterations=1,
    )
    result = payloads["BENCH_head_scaling.json"]
    figure10, stress = result["figure10_extended"], result["stress"]
    report(benchmark, "Head scaling: Figure 10 extended",
           format_table(figure10, ["heads", "measured_ms", "paper_ms"]),
           figure10)
    columns = ["heads", "mean_jsub_ms", "wire_bytes_per_job",
               "kernel_events_per_job"]
    report(benchmark, "Head scaling: stress probe",
           format_table(stress, columns), stress)

    for rows, keys in ((figure10, ["measured_ms"]), (stress, columns)):
        for key in keys:
            series = [row[key] for row in rows]
            assert series == sorted(series), (key, series)
    assert stress[-1]["heads"] == 16 and stress[-1]["mean_jsub_ms"] < 1000, stress

    write_snapshots(ROOT, payloads)
