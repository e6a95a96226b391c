"""Named deterministic random-number streams.

A simulation mixes several stochastic processes — network jitter, failure
injection, workload inter-arrival times. If they all drew from one generator,
adding a single extra network message would perturb the failure schedule and
make experiments impossible to compare across configurations ("simulation
variance coupling"). :class:`RandomStreams` hands each subsystem its own
:class:`numpy.random.Generator` derived from a master seed and the stream
name, so streams are mutually independent and individually reproducible.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["RandomStreams"]


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
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it deterministically.

        The stream's sub-seed is derived from the master seed and a stable
        hash of the name (``zlib.crc32`` — Python's ``hash`` is salted per
        process and would break reproducibility).
        """
        if name not in self._streams:
            sub = np.random.SeedSequence([self._seed, zlib.crc32(name.encode("utf-8"))])
            self._streams[name] = np.random.default_rng(sub)
        return self._streams[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed}, streams={len(self._streams)})"
