"""Figure 12: availability and downtime per year, 1-4 head nodes.

Two regenerations of the same table:

* **analytic** — the paper's own method, Equations 1-3 with MTTF = 5000 h
  and MTTR = 72 h;
* **Monte Carlo** — the same failure model simulated on the DES kernel for
  hundreds of years, cross-checking the closed form and demonstrating the
  machinery the extension studies (correlated failures, non-exponential
  repairs) plug into. Rare triple/quadruple overlaps need very long
  horizons to estimate tightly; the bench reports the analytic value as
  the reference and the empirical value with its event count.
"""

from __future__ import annotations

from repro.ha.availability import (
    figure12_table,
    format_duration,
    monte_carlo_availability,
)

__all__ = ["PAPER_FIGURE12", "figure12", "figure12_empirical"]

#: Paper rows: nodes -> (availability %, nines, downtime rendered).
PAPER_FIGURE12 = {
    1: (98.6, 1, "5d 4h 21min"),
    2: (99.98, 3, "1h 45min"),
    3: (99.9997, 5, "1min 30s"),
    4: (99.999996, 7, "1s"),
}


def figure12(*, mttf_hours: float = 5000.0, mttr_hours: float = 72.0) -> list[dict]:
    """The analytic table with paper columns alongside."""
    rows = []
    for row in figure12_table(4, mttf_hours=mttf_hours, mttr_hours=mttr_hours):
        paper_pct, paper_nines, paper_downtime = PAPER_FIGURE12[row["nodes"]]
        rows.append(
            {
                "nodes": row["nodes"],
                "availability_pct": row["availability_pct"],
                "paper_pct": paper_pct,
                "nines": row["nines"],
                "paper_nines": paper_nines,
                "downtime": row["downtime"],
                "paper_downtime": paper_downtime,
            }
        )
    return rows


#: Head counts the Monte-Carlo cross-check covers: 4 heads have ~1 s/year
#: of downtime, which would need geological horizons to estimate.
MONTE_CARLO_NODES = 3


def figure12_empirical(
    *,
    mttf_hours: float = 5000.0,
    mttr_hours: float = 72.0,
    horizon_years: float = 3000.0,
) -> list[dict]:
    """Monte-Carlo cross-check for 1 to :data:`MONTE_CARLO_NODES` heads."""
    analytic = {row["nodes"]: row for row in figure12_table(MONTE_CARLO_NODES,
                mttf_hours=mttf_hours, mttr_hours=mttr_hours)}
    rows = []
    for nodes in range(1, MONTE_CARLO_NODES + 1):
        result = monte_carlo_availability(
            nodes,
            mttf_hours=mttf_hours,
            mttr_hours=mttr_hours,
            horizon_years=horizon_years,
        )
        rows.append(
            {
                "nodes": nodes,
                "empirical_pct": 100 * result.availability,
                "analytic_pct": analytic[nodes]["availability_pct"],
                "empirical_downtime": format_duration(result.downtime_seconds_per_year),
                "analytic_downtime": analytic[nodes]["downtime"],
                "outages_observed": result.all_down_events,
            }
        )
    return rows
