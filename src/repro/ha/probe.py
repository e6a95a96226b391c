"""Service probing and workload outcome reporting.

:class:`ServiceProbe` plays an impatient user: every ``interval`` it tries
a cheap status command against the HA system under test and records whether
*anyone* answered. The probe's failure windows are the empirical service
downtime — the quantity the HA models differ on.

:class:`WorkloadReport` aggregates the fate of submitted jobs: completed,
lost (the system forgot them), and restarted (``run_count > 1`` — the
"applications have to be restarted" cost of failover-based models).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator

__all__ = ["ServiceProbe", "WorkloadReport"]


class ServiceProbe:
    """Periodic liveness probe against a status-command coroutine factory.

    Parameters
    ----------
    kernel:
        Simulation kernel.
    attempt_factory:
        Zero-argument callable returning a *fresh coroutine* that performs
        one status query and returns normally on success (any exception is
        a failed probe).
    """

    #: Seconds between probes (read at every tick).
    interval = 1.0

    def __init__(self, kernel, attempt_factory: Callable[[], Generator]):
        self.kernel = kernel
        self.attempt_factory = attempt_factory
        #: (probe start time, succeeded)
        self.samples: list[tuple[float, bool]] = []
        self._process = kernel.spawn(self._loop(), name="service-probe")

    def _loop(self):
        while True:
            yield self.kernel.timeout(self.interval)
            started = self.kernel.now
            try:
                yield from self.attempt_factory()
                self.samples.append((started, True))
            except Exception:
                self.samples.append((started, False))

    def stop(self) -> None:
        self._process.interrupt("probe stopped")

    # -- analysis ---------------------------------------------------------

    @property
    def failures(self) -> int:
        return sum(1 for _t, ok in self.samples if not ok)

    @property
    def attempts(self) -> int:
        return len(self.samples)

    def availability(self) -> float:
        """Fraction of probes that succeeded."""
        if not self.samples:
            return 1.0
        return 1.0 - self.failures / len(self.samples)

    def downtime_windows(self) -> list[tuple[float, float]]:
        """Contiguous failed-probe windows as (first failure, next success)."""
        windows: list[tuple[float, float]] = []
        start: float | None = None
        for time, ok in self.samples:
            if not ok and start is None:
                start = time
            elif ok and start is not None:
                windows.append((start, time))
                start = None
        if start is not None:
            windows.append((start, self.samples[-1][0] + self.interval))
        return windows

    def total_downtime(self) -> float:
        return sum(end - start for start, end in self.downtime_windows())


@dataclass
class WorkloadReport:
    """Outcome of a submitted workload against one HA model."""

    model: str
    submitted: int = 0
    completed: int = 0
    lost: int = 0
    restarted: int = 0
    submit_failures: int = 0
    probe_downtime: float = 0.0
    probe_availability: float = 1.0
    details: dict = field(default_factory=dict)

    def summary_row(self) -> dict:
        return {
            "model": self.model,
            "submitted": self.submitted,
            "completed": self.completed,
            "lost": self.lost,
            "restarted": self.restarted,
            "submit_failures": self.submit_failures,
            "downtime_s": round(self.probe_downtime, 2),
            "availability": round(self.probe_availability, 4),
        }
