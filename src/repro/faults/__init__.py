"""Fault injection and runtime invariant checking.

The chaos subsystem turns the ad-hoc failure drills of the integration
tests into first-class, replayable scenarios:

* :mod:`~repro.faults.schedule` — typed fault events, declarative
  schedules (builder / dict / JSON), and the seeded random generator
  behind soak runs;
* :mod:`~repro.faults.injector` — executes a schedule against a cluster
  through the network/node APIs, with automatic reverts for timed faults
  and :meth:`~repro.faults.injector.FaultInjector.heal_all` hygiene;
* :mod:`~repro.faults.invariants` — live checkers for the paper's
  guarantees (the group's contract, exactly-once job launch, bounded
  protocol state, and what clients were told);
* :mod:`~repro.faults.history` — the client history those last are judged
  by: every client command against one TORQUE server;
* :mod:`~repro.faults.runner` — the ``repro chaos`` harness combining all
  of the above around a JOSHUA stack and a job workload.
"""

from repro.faults.injector import FaultInjector, drops_token
from repro.faults.invariants import InvariantSuite, Violation
from repro.faults.runner import CHAOS_GROUP, ChaosReport, run_chaos, soak
from repro.faults.schedule import FaultEvent, FaultSchedule, random_schedule

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "random_schedule",
    "FaultInjector",
    "drops_token",
    "InvariantSuite",
    "Violation",
    "CHAOS_GROUP",
    "ChaosReport",
    "run_chaos",
    "soak",
]
