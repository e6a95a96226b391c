"""Named deterministic random-number streams.

A simulation mixes several stochastic processes — network jitter, failure
injection, workload inter-arrival times. If they all drew from one generator,
adding a single extra network message would perturb the failure schedule and
make experiments impossible to compare across configurations ("simulation
variance coupling"). :class:`RandomStreams` hands each subsystem its own
:class:`Stream`, seeded by the string ``f"{seed}/{name}"``, so streams are
mutually independent and individually reproducible.

A :class:`Stream` is a standard-library :class:`random.Random`. Seeding by a
string is stable across interpreter versions and processes (it does not go
through the salted ``hash``), and Python guarantees only ``random()``'s
sequence across versions, so every distribution the tree draws is derived
here from ``random()`` alone: a committed golden depends on no interpreter's
``expovariate``, ``randrange`` or ``sample``.
"""

from __future__ import annotations

import math
import random

__all__ = ["RandomStreams", "Stream"]


class Stream(random.Random):
    """One named stream: ``random()`` plus the distributions built on it."""

    def exponential(self, scale: float) -> float:
        """Exponential with mean *scale*."""
        return -scale * math.log(1.0 - self.random())

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform on [lo, hi)."""
        return lo + (hi - lo) * self.random()

    def integers(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self.random() * n)

    def pareto(self, a: float) -> float:
        """Lomax (Pareto II) with shape *a* and scale 1."""
        return (1.0 - self.random()) ** (-1.0 / a) - 1.0


class RandomStreams:
    """A family of independent, named random streams under one master seed.

    Parameters
    ----------
    seed:
        Master seed. Two :class:`RandomStreams` with the same seed produce
        identical streams for identical names, regardless of creation order.

    Examples
    --------
    >>> streams = RandomStreams(42)
    >>> jitter = streams.get("net.jitter")
    >>> failures = streams.get("failures")
    >>> jitter is streams.get("net.jitter")
    True
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed
        self._streams: dict[str, Stream] = {}

    def get(self, name: str) -> Stream:
        """Return the stream for *name*, creating it deterministically."""
        if name not in self._streams:
            self._streams[name] = Stream(f"{self._seed}/{name}")
        return self._streams[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed}, streams={len(self._streams)})"
