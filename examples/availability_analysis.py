#!/usr/bin/env python3
"""Availability analysis: Figure 12, the Monte-Carlo cross-check, and
what-if studies for your own hardware.

The paper computes service availability from per-node MTTF/MTTR via
parallel redundancy (Equations 1-3): with MTTF = 5000 h and MTTR = 72 h,
one head node gives 98.6 % (5+ days down a year) while four JOSHUA head
nodes give seven nines (1 second a year).

This example regenerates that table, validates it against a discrete-event
Monte-Carlo simulation of the same failure processes, and then answers the
questions an operator actually has: what if my repair time is a weekend?
what if I buy better hardware instead of more heads?

Run:  python examples/availability_analysis.py
"""

from repro.bench.reporting import format_table
from repro.ha.availability import (
    figure12_table,
    format_duration,
    monte_carlo_availability,
    node_availability,
    service_availability,
    downtime_seconds_per_year,
    nines,
)


def main() -> None:
    # --- Figure 12, the paper's parameters --------------------------------
    print(format_table(
        [
            {
                "heads": row["nodes"],
                "availability_%": f"{row['availability_pct']:.7f}",
                "nines": row["nines"],
                "downtime/year": row["downtime"],
            }
            for row in figure12_table(4)
        ],
        title="Figure 12 — MTTF 5000 h, MTTR 72 h (paper parameters)",
    ))

    # --- Monte-Carlo cross-check ------------------------------------------
    print("\nMonte-Carlo cross-check (simulated failure processes):")
    for heads in (1, 2):
        result = monte_carlo_availability(
            heads, mttf_hours=5000, mttr_hours=72, horizon_years=2000
        )
        analytic = figure12_table(heads)[-1]
        print(f"  {heads} head(s): empirical {100 * result.availability:.4f}% "
              f"vs analytic {analytic['availability_pct']:.4f}% "
              f"({result.all_down_events} full outages in "
              f"{result.horizon_years:.0f} simulated years)")

    # --- What-if: slower repair -------------------------------------------
    print("\nWhat if repair takes a full week (MTTR 168 h)?")
    rows = []
    for heads in (1, 2, 3, 4):
        a = service_availability(node_availability(5000, 168), heads)
        rows.append({
            "heads": heads,
            "nines": nines(a),
            "downtime/year": format_duration(downtime_seconds_per_year(a)),
        })
    print(format_table(rows))

    # --- What-if: better hardware vs more heads -----------------------------
    print("\nBetter hardware (MTTF 20000 h) vs adding heads (MTTR 72 h):")
    one_good = service_availability(node_availability(20000, 72), 1)
    two_cheap = service_availability(node_availability(5000, 72), 2)
    print(f"  1 premium head : {nines(one_good)} nines "
          f"({format_duration(downtime_seconds_per_year(one_good))}/year)")
    print(f"  2 standard heads: {nines(two_cheap)} nines "
          f"({format_duration(downtime_seconds_per_year(two_cheap))}/year)")
    print("  -> redundancy beats component quality: the second head wins.")


if __name__ == "__main__":
    main()
