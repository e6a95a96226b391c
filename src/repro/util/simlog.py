"""Simulation-time-aware logging.

Standard :mod:`logging` stamps wall-clock time, which is meaningless inside a
discrete-event simulation: what matters is *when in simulated time* a daemon
acted. :class:`SimLogger` timestamps records with a caller-supplied clock
callable (usually ``kernel.now``) and keeps records in memory so tests can
assert on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = ["LogRecord", "SimLogger"]


@dataclass(frozen=True)
class LogRecord:
    """One log entry, stamped with simulated time."""

    time: float
    level: str
    source: str
    message: str
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Machine-readable form; the ``type`` discriminator keeps log
        records distinguishable from trace spans in one merged JSONL
        stream (see :mod:`repro.obs.export`)."""
        return {
            "type": "log",
            "time": self.time,
            "level": self.level,
            "source": self.source,
            "message": self.message,
            "fields": dict(self.fields),
        }


class SimLogger:
    """In-memory warning/error log driven by a simulated clock.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current simulated time.
    """

    #: Maximum records kept; older records are dropped FIFO.
    capacity = 100_000

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        self.records: list[LogRecord] = []

    def log(self, level: str, source: str, message: str, **fields) -> None:
        record = LogRecord(self._clock(), level, source, message, fields)
        self.records.append(record)
        if len(self.records) > self.capacity:
            del self.records[: len(self.records) - self.capacity]

    def warning(self, source: str, message: str, **fields) -> None:
        self.log("WARNING", source, message, **fields)

    def error(self, source: str, message: str, **fields) -> None:
        self.log("ERROR", source, message, **fields)

    def to_dicts(self) -> list[dict]:
        """Structured export of every retained record."""
        return [r.to_dict() for r in self.records]
