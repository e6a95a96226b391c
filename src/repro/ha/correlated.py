"""Correlated-failure availability: the analysis the paper defers.

§5: "this analysis does not show the impact of correlated failures, such
as caused by overheating of a rack or computer room. The deployment of
multiple redundant head nodes also needs to take into account these
location dependent failure causes."

We model the standard *common-cause* (beta-factor-style) extension: on top
of each head's independent Exp(MTTF)/Exp(MTTR) process, a shared
environmental process (rack overheat, PDU trip, machine-room cooling) takes
**every** head down simultaneously with its own MTTF/MTTR. The service is
down when all heads are independently down *or* the common cause is active:

.. math::

    A_{service} = A_{cc} \\cdot \\bigl(1 - (1 - A_{node})^n\\bigr)

(the common cause and the independent processes are independent of each
other; during a common-cause event availability is zero regardless of n).

The punchline the paper anticipates: the common cause **caps** the
achievable nines — beyond the point where independent overlap is rarer
than the environmental event, additional head nodes buy nothing, and the
money belongs in a second rack/room instead. :func:`diminishing_returns`
finds that point; :func:`monte_carlo_correlated` cross-checks the closed
form by simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ha.availability import (
    SECONDS_PER_YEAR,
    node_availability,
    service_availability,
)
from repro.util.errors import ReproError

__all__ = [
    "correlated_service_availability",
    "correlated_table",
    "diminishing_returns",
    "monte_carlo_correlated",
    "CorrelatedMCResult",
]


def correlated_service_availability(
    nodes: int,
    *,
    mttf_hours: float = 5000.0,
    mttr_hours: float = 72.0,
    cc_mttf_hours: float = 50_000.0,
    cc_mttr_hours: float = 24.0,
) -> float:
    """Closed-form service availability with a common-cause process."""
    a_node = node_availability(mttf_hours, mttr_hours)
    a_cc = node_availability(cc_mttf_hours, cc_mttr_hours)
    return a_cc * service_availability(a_node, nodes)


def correlated_table(
    max_nodes: int = 6,
    *,
    mttf_hours: float = 5000.0,
    mttr_hours: float = 72.0,
    cc_mttf_hours: float = 50_000.0,
    cc_mttr_hours: float = 24.0,
) -> list[dict]:
    """Independent vs. correlated availability side by side."""
    from repro.ha.availability import downtime_seconds_per_year, format_duration, nines

    rows = []
    a_node = node_availability(mttf_hours, mttr_hours)
    for n in range(1, max_nodes + 1):
        independent = service_availability(a_node, n)
        correlated = correlated_service_availability(
            n,
            mttf_hours=mttf_hours,
            mttr_hours=mttr_hours,
            cc_mttf_hours=cc_mttf_hours,
            cc_mttr_hours=cc_mttr_hours,
        )
        rows.append(
            {
                "nodes": n,
                "independent_nines": nines(independent),
                "correlated_nines": nines(correlated),
                "independent_downtime": format_duration(
                    downtime_seconds_per_year(independent)
                ),
                "correlated_downtime": format_duration(
                    downtime_seconds_per_year(correlated)
                ),
            }
        )
    return rows


def diminishing_returns(
    *,
    mttf_hours: float = 5000.0,
    mttr_hours: float = 72.0,
    cc_mttf_hours: float = 50_000.0,
    cc_mttr_hours: float = 24.0,
) -> int:
    """Smallest head count where one more head improves correlated
    availability by less than 5 % (relative downtime reduction)."""
    previous = correlated_service_availability(
        1, mttf_hours=mttf_hours, mttr_hours=mttr_hours,
        cc_mttf_hours=cc_mttf_hours, cc_mttr_hours=cc_mttr_hours,
    )
    for n in range(2, 64):
        current = correlated_service_availability(
            n, mttf_hours=mttf_hours, mttr_hours=mttr_hours,
            cc_mttf_hours=cc_mttf_hours, cc_mttr_hours=cc_mttr_hours,
        )
        down_prev = 1.0 - previous
        down_now = 1.0 - current
        if down_prev > 0 and (down_prev - down_now) / down_prev < 0.05:
            return n - 1
        previous = current
    raise ReproError("no diminishing-returns point below 64 heads")  # pragma: no cover


@dataclass(frozen=True)
class CorrelatedMCResult:
    nodes: int
    availability: float
    downtime_seconds_per_year: float
    independent_outages: int
    common_cause_outages: int


def monte_carlo_correlated(
    nodes: int,
    *,
    mttf_hours: float = 5000.0,
    mttr_hours: float = 72.0,
    cc_mttf_hours: float = 50_000.0,
    cc_mttr_hours: float = 24.0,
    horizon_years: float = 500.0,
    seed: int = 0,
) -> CorrelatedMCResult:
    """Simulate independent + common-cause failure processes."""
    from repro.sim.kernel import Kernel

    if nodes < 1:
        raise ReproError("need at least one node")
    kernel = Kernel(seed=seed)
    horizon = horizon_years * SECONDS_PER_YEAR
    up = [True] * nodes
    cc_active = [False]
    state = {"down_since": None, "down_total": 0.0,
             "indep_outages": 0, "cc_outages": 0}

    def service_down() -> bool:
        return cc_active[0] or not any(up)

    def account(cause: str | None) -> None:
        now = kernel.now
        if service_down() and state["down_since"] is None:
            state["down_since"] = now
            if cause == "cc":
                state["cc_outages"] += 1
            else:
                state["indep_outages"] += 1
        elif not service_down() and state["down_since"] is not None:
            state["down_total"] += now - state["down_since"]
            state["down_since"] = None

    def node_lifecycle(index: int):
        rng = kernel.streams.get(f"cc-node.{index}")
        while True:
            yield kernel.timeout(rng.exponential(mttf_hours * 3600))
            up[index] = False
            account("indep")
            yield kernel.timeout(rng.exponential(mttr_hours * 3600))
            up[index] = True
            account(None)

    def common_cause():
        rng = kernel.streams.get("cc-shared")
        while True:
            yield kernel.timeout(rng.exponential(cc_mttf_hours * 3600))
            cc_active[0] = True
            account("cc")
            yield kernel.timeout(rng.exponential(cc_mttr_hours * 3600))
            cc_active[0] = False
            account(None)

    for index in range(nodes):
        kernel.spawn(node_lifecycle(index))
    kernel.spawn(common_cause())
    kernel.run(until=horizon)
    if state["down_since"] is not None:
        state["down_total"] += horizon - state["down_since"]
    availability = 1.0 - state["down_total"] / horizon
    return CorrelatedMCResult(
        nodes=nodes,
        availability=availability,
        downtime_seconds_per_year=state["down_total"] / horizon_years,
        independent_outages=state["indep_outages"],
        common_cause_outages=state["cc_outages"],
    )
