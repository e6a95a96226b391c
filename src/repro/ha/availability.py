"""Availability analysis: the paper's Equations 1-3 and Figure 12.

.. math::

    A_{node} = \\frac{MTTF_{node}}{MTTF_{node} + MTTR_{node}}       \\quad (1)

    A_{service} = 1 - (1 - A_{node})^{n}                             \\quad (2)

    t_{service\\,down} = 8760 \\cdot (1 - A_{service})\\ \\text{hours} \\quad (3)

Equation 2 is parallel redundancy: JOSHUA provides continuous availability
without increasing MTTR and without a system-wide failover MTTR, so the
service is down only when *all* head nodes are down simultaneously.

:func:`monte_carlo_availability` cross-checks the closed form empirically:
it simulates ``n`` independent exponential crash/repair processes on the
DES kernel and measures the fraction of time at least one node was up —
the same model assumptions, so it converges to Equation 2 (tests assert
this), while also supporting what the closed form cannot: non-exponential
repair, correlated failures via a shared-cause process, and warm-up bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.errors import ReproError

__all__ = [
    "node_availability",
    "service_availability",
    "downtime_seconds_per_year",
    "nines",
    "format_duration",
    "figure12_row",
    "figure12_table",
    "monte_carlo_availability",
    "MonteCarloResult",
]

HOURS_PER_YEAR = 8760.0
SECONDS_PER_YEAR = HOURS_PER_YEAR * 3600.0


def node_availability(mttf_hours: float, mttr_hours: float) -> float:
    """Equation 1: steady-state availability of one head node."""
    if mttf_hours <= 0 or mttr_hours < 0:
        raise ReproError("MTTF must be positive and MTTR non-negative")
    return mttf_hours / (mttf_hours + mttr_hours)


def service_availability(a_node: float, nodes: int) -> float:
    """Equation 2: parallel redundancy over *nodes* independent heads."""
    if not 0.0 <= a_node <= 1.0:
        raise ReproError(f"availability must be in [0, 1], got {a_node}")
    if nodes < 1:
        raise ReproError("need at least one node")
    return 1.0 - (1.0 - a_node) ** nodes

def downtime_seconds_per_year(a_service: float) -> float:
    """Equation 3 (converted to seconds for sub-minute values)."""
    if not 0.0 <= a_service <= 1.0:
        raise ReproError(f"availability must be in [0, 1], got {a_service}")
    return SECONDS_PER_YEAR * (1.0 - a_service)


def nines(availability: float) -> int:
    """Count of leading nines: 0.9998 -> 3 (the paper's 'Nines' column)."""
    if availability >= 1.0:
        return math.inf  # type: ignore[return-value]
    if availability <= 0.0:
        return 0
    return int(-math.log10(1.0 - availability))


def format_duration(seconds: float) -> str:
    """Render like the paper: ``5d 4h 21min``, ``1h 45min``, ``1min 30s``,
    ``1s``."""
    if seconds < 0:
        raise ReproError("duration must be non-negative")
    days, rest = divmod(seconds, 86400)
    hours, rest = divmod(rest, 3600)
    minutes, secs = divmod(rest, 60)
    parts: list[str] = []
    if days >= 1:
        parts.append(f"{int(days)}d")
    if hours >= 1:
        parts.append(f"{int(hours)}h")
    if minutes >= 1:
        parts.append(f"{int(minutes)}min")
    if not parts or (days < 1 and hours < 1 and secs >= 1):
        parts.append(f"{max(1, round(secs))}s" if seconds >= 0.5 else f"{secs:.2f}s")
    return " ".join(parts[:3])


def figure12_row(nodes: int, *, mttf_hours: float = 5000.0, mttr_hours: float = 72.0) -> dict:
    """One row of Figure 12 for *nodes* head nodes."""
    a_node = node_availability(mttf_hours, mttr_hours)
    a_service = service_availability(a_node, nodes)
    down = downtime_seconds_per_year(a_service)
    return {
        "nodes": nodes,
        "availability": a_service,
        "availability_pct": 100.0 * a_service,
        "nines": nines(a_service),
        "downtime_seconds": down,
        "downtime": format_duration(down),
    }


def figure12_table(max_nodes: int = 4, *, mttf_hours: float = 5000.0, mttr_hours: float = 72.0) -> list[dict]:
    """The full Figure 12 table (1..max_nodes head nodes)."""
    return [
        figure12_row(n, mttf_hours=mttf_hours, mttr_hours=mttr_hours)
        for n in range(1, max_nodes + 1)
    ]


@dataclass(frozen=True)
class MonteCarloResult:
    nodes: int
    horizon_years: float
    availability: float
    downtime_seconds_per_year: float
    all_down_events: int


def monte_carlo_availability(
    nodes: int,
    *,
    mttf_hours: float = 5000.0,
    mttr_hours: float = 72.0,
    horizon_years: float = 200.0,
) -> MonteCarloResult:
    """Estimate service availability by simulating failure processes.

    Runs ``nodes`` independent alternating Exp(MTTF)/Exp(MTTR) renewal
    processes on a DES kernel and measures the total time during which
    *every* node was simultaneously down (the paper's definition of service
    downtime for the symmetric active/active model). The kernel's fixed
    seed makes the estimate deterministic.
    """
    from repro.sim.kernel import Kernel

    if nodes < 1:
        raise ReproError("need at least one node")
    kernel = Kernel()
    mttf = mttf_hours * 3600.0
    mttr = mttr_hours * 3600.0
    horizon = horizon_years * SECONDS_PER_YEAR

    up = [True] * nodes
    state = {"all_down_since": None, "down_total": 0.0, "events": 0}

    def lifecycle(index: int):
        rng = kernel.streams.get(f"mc.{index}")
        while True:
            yield kernel.timeout(rng.exponential(mttf))
            up[index] = False
            if not any(up) and state["all_down_since"] is None:
                state["all_down_since"] = kernel.now
                state["events"] += 1
            yield kernel.timeout(rng.exponential(mttr))
            up[index] = True
            if state["all_down_since"] is not None:
                state["down_total"] += kernel.now - state["all_down_since"]
                state["all_down_since"] = None

    for index in range(nodes):
        kernel.spawn(lifecycle(index))
    kernel.run(until=horizon)
    if state["all_down_since"] is not None:
        state["down_total"] += horizon - state["all_down_since"]
    availability = 1.0 - state["down_total"] / horizon
    return MonteCarloResult(
        nodes=nodes,
        horizon_years=horizon_years,
        availability=availability,
        downtime_seconds_per_year=state["down_total"] / horizon_years,
        all_down_events=state["events"],
    )
