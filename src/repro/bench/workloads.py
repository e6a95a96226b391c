"""Workload generators.

Three shapes cover the paper's scenarios and the motivating use cases:

* :class:`BurstWorkload` — N back-to-back submissions, as fast as the
  client can issue them (Figure 11's throughput measurement; the paper's
  "submitting a large number of jobs at once").
* :class:`PoissonWorkload` — exponential inter-arrivals, the steady-state
  user population the availability comparisons use.
* :class:`TraceWorkload` — explicit (time, spec) pairs for scripted
  scenarios and regression tests.

A workload is an iterable of ``(delay_before_submit, JobSpec)`` pairs, so
drivers stay trivial: wait the delay, submit, repeat.

Those pairs are **closed-loop** by construction: the driver issues the
next command only after the previous one returned, so offered load sags
exactly when the system slows down — fine for a single interactive user,
wrong for measuring capacity. :class:`OpenLoopWorkload` is the open-loop
front-end (PROTOCOLS.md §12): it emits :class:`OpenLoopRequest` records at
*absolute* times drawn from a Poisson process, attributed to a client
population, with heavy-tailed job sizes and a configurable read fraction.
The schedule never waits on the system under test — each request is
issued at its appointed time on its owning client's session, concurrently
with whatever is still in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.pbs.job import JobSpec
from repro.util.errors import ReproError

__all__ = [
    "BurstWorkload",
    "PoissonWorkload",
    "DiurnalWorkload",
    "TraceWorkload",
    "OpenLoopRequest",
    "OpenLoopWorkload",
]


#: Lomax shape of :class:`OpenLoopWorkload`'s walltime tail.
_WALLTIME_SHAPE = 1.5


def _default_spec(index: int, walltime: float) -> JobSpec:
    return JobSpec(name=f"job{index:04d}", walltime=walltime)


@dataclass(frozen=True)
class BurstWorkload:
    """*count* submissions with no think time between them."""

    count: int
    walltime: float = 600.0

    def __post_init__(self):
        if self.count < 1:
            raise ReproError("burst needs at least one job")

    def __iter__(self) -> Iterator[tuple[float, JobSpec]]:
        for index in range(self.count):
            yield 0.0, _default_spec(index, self.walltime)

    def __len__(self) -> int:
        return self.count


@dataclass(frozen=True)
class PoissonWorkload:
    """Exponential inter-arrival times with mean ``1/rate`` seconds.

    Walltimes are drawn uniformly from ``walltime_range`` — enough spread
    to interleave queueing and execution.
    """

    count: int
    rate: float
    walltime_range: tuple[float, float] = (5.0, 30.0)
    seed: int = 0

    def __post_init__(self):
        if self.count < 1 or self.rate <= 0:
            raise ReproError("poisson workload needs count >= 1 and rate > 0")
        lo, hi = self.walltime_range
        if lo <= 0 or hi < lo:
            raise ReproError("invalid walltime range")

    def __iter__(self) -> Iterator[tuple[float, JobSpec]]:
        rng = np.random.default_rng(self.seed)
        lo, hi = self.walltime_range
        for index in range(self.count):
            delay = float(rng.exponential(1.0 / self.rate))
            walltime = float(rng.uniform(lo, hi))
            yield delay, JobSpec(name=f"job{index:04d}", walltime=walltime)

    def __len__(self) -> int:
        return self.count


@dataclass(frozen=True)
class DiurnalWorkload:
    """A day-shaped submission pattern: a sinusoidal rate peaking mid-day.

    What a production head node actually sees — quiet nights, busy
    afternoons — used by the endurance experiment that replays the paper's
    multi-day stress scenario, and by the trace replay. The rate at time *t* (seconds) is::

        rate(t) = base_rate * (1 + amplitude * sin(2*pi*t/day - pi/2))

    so the day starts at the trough. Submission times come from thinning a
    Poisson process at the peak rate (deterministic given *seed*).
    """

    count: int
    base_rate: float
    amplitude: float = 0.8
    day_seconds: float = 86400.0
    walltime_range: tuple[float, float] = (10.0, 120.0)
    seed: int = 0

    def __post_init__(self):
        if self.count < 1 or self.base_rate <= 0:
            raise ReproError("diurnal workload needs count >= 1 and base_rate > 0")
        if not 0.0 <= self.amplitude < 1.0:
            raise ReproError("amplitude must be in [0, 1)")
        lo, hi = self.walltime_range
        if lo <= 0 or hi < lo:
            raise ReproError("invalid walltime range")

    def __iter__(self) -> Iterator[tuple[float, JobSpec]]:
        rng = np.random.default_rng(self.seed)
        lo, hi = self.walltime_range
        peak = self.base_rate * (1.0 + self.amplitude)
        time = 0.0
        emitted = 0
        previous = 0.0
        while emitted < self.count:
            time += float(rng.exponential(1.0 / peak))
            phase = 2.0 * np.pi * time / self.day_seconds - np.pi / 2.0
            rate = self.base_rate * (1.0 + self.amplitude * np.sin(phase))
            if float(rng.random()) < rate / peak:  # thinning
                walltime = float(rng.uniform(lo, hi))
                yield time - previous, JobSpec(
                    name=f"job{emitted:05d}", walltime=walltime
                )
                previous = time
                emitted += 1

    def __len__(self) -> int:
        return self.count


@dataclass(frozen=True)
class OpenLoopRequest:
    """One scheduled front-end request.

    ``time`` is absolute (seconds from workload start — open loop, not a
    delay); ``client`` indexes the client population; ``kind`` is
    ``"jsub"`` (with a ``spec``) or ``"jstat"`` (``spec`` is ``None``)."""

    time: float
    client: int
    kind: str
    spec: JobSpec | None = None


@dataclass(frozen=True)
class OpenLoopWorkload:
    """Open-loop request schedule over a client population.

    Arrivals are a Poisson process at constant *rate* (memoryless steady
    state; :class:`DiurnalWorkload` is the day-shaped stream). Each
    arrival is a read (``jstat``) with probability ``read_fraction``,
    else a submission whose walltime is heavy-tailed Pareto
    (``scale * (1 + Lomax(shape))``, capped) — most jobs are small, a few
    are enormous, like real batch queues. Requests are attributed
    uniformly to ``clients`` distinct clients; drivers route each to that
    client's own gateway session so read-your-writes floors mean what
    they should.
    """

    count: int
    rate: float
    read_fraction: float = 0.0
    clients: int = 100
    walltime_scale: float = 10.0
    walltime_cap: float = 3600.0
    seed: int = 0

    def __post_init__(self):
        if self.count < 1 or self.rate <= 0:
            raise ReproError("open-loop workload needs count >= 1 and rate > 0")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ReproError("read_fraction must be in [0, 1]")
        if self.clients < 1:
            raise ReproError("need at least one client")
        if self.walltime_scale <= 0:
            raise ReproError("walltime_scale must be positive")

    def __iter__(self) -> Iterator[OpenLoopRequest]:
        rng = np.random.default_rng(self.seed)
        time = 0.0
        for index in range(self.count):
            time += float(rng.exponential(1.0 / self.rate))
            # Unused, but dropping this draw would shift every later one and
            # with them the committed BENCH_read_scaling.json.
            rng.random()
            client = int(rng.integers(self.clients))
            if float(rng.random()) < self.read_fraction:
                yield OpenLoopRequest(time, client, "jstat")
            else:
                walltime = min(
                    self.walltime_scale
                    * (1.0 + float(rng.pareto(_WALLTIME_SHAPE))),
                    self.walltime_cap,
                )
                yield OpenLoopRequest(
                    time, client, "jsub",
                    JobSpec(name=f"job{index:05d}", walltime=walltime),
                )

    def __len__(self) -> int:
        return self.count


@dataclass(frozen=True)
class TraceWorkload:
    """Explicit ``(absolute_time, spec)`` schedule."""

    entries: tuple = field(default=())

    def __iter__(self) -> Iterator[tuple[float, JobSpec]]:
        previous = 0.0
        for time, spec in sorted(self.entries, key=lambda e: e[0]):
            if time < previous:
                raise ReproError("trace times must be non-decreasing")
            yield time - previous, spec
            previous = time

    def __len__(self) -> int:
        return len(self.entries)
