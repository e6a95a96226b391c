"""Event primitives for the DES kernel.

An :class:`Event` is a one-shot occurrence. It starts *pending*; exactly once
it is *triggered* — either succeeding with a value or failing with an
exception — after which the kernel runs its callbacks (resuming any processes
waiting on it) and the event becomes *processed*.

Composites :class:`AnyOf` and :class:`AllOf` let a process wait for the first
or all of several events; both are events themselves, so they nest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel

__all__ = ["PENDING", "TRIGGERED", "PROCESSED", "Event", "Timeout", "AnyOf", "AllOf"]

PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"


class Event:
    """A one-shot occurrence on the simulation timeline.

    Parameters
    ----------
    kernel:
        The kernel whose timeline this event lives on.

    Notes
    -----
    Callbacks receive the event as their only argument and run when the
    kernel processes the event, in registration order.
    """

    __slots__ = ("kernel", "callbacks", "cancelled", "det_key", "_state", "_ok", "_value")

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.callbacks: list[Callable[["Event"], None]] = []
        #: Set when a waiting process was interrupted away from this event;
        #: a :class:`~repro.sim.resources.Store` skips cancelled getters.
        self.cancelled = False
        #: Optional explicit tie-break annotation: schedulers that fan out
        #: several same-time events set this so the determinism sanitizer
        #: can tell them apart (see :mod:`repro.sim.sanitizer`). Purely
        #: observational — never affects ordering.
        self.det_key: Any = None
        self._state = PENDING
        self._ok: bool | None = None
        self._value: Any = None

    # -- inspection ------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def triggered(self) -> bool:
        """True once the outcome is decided (callbacks may not have run yet)."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """Whether the event succeeded. Only valid once :attr:`triggered`."""
        if self._ok is None:
            raise SimulationError("event outcome not decided yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception. Valid once triggered."""
        if not self.triggered:
            raise SimulationError("event has not been triggered")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Decide the event successfully and schedule its callbacks now."""
        self._decide(True, value)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Decide the event as failed; waiters have *exception* thrown in."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._decide(False, exception)
        return self

    def _decide(self, ok: bool, value: Any) -> None:
        if self._state != PENDING:
            raise SimulationError(f"event already {self._state}; cannot trigger twice")
        self._ok = ok
        self._value = value
        self._state = TRIGGERED
        self.kernel._enqueue(self)

    def _process(self) -> None:
        """Run callbacks. Called by the kernel only."""
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self._state} at t={self.kernel.now}>"


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, kernel: "Kernel", delay: float, value: Any = None,
                 *, det_key: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(kernel)
        self.delay = delay
        self.det_key = det_key
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        kernel._enqueue(self, delay=delay)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover - guard
        raise SimulationError("a Timeout triggers itself; do not call succeed()")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover - guard
        raise SimulationError("a Timeout triggers itself; do not call fail()")


class _Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, kernel: "Kernel", events: Iterable[Event]):
        super().__init__(kernel)
        self.events = tuple(events)
        for ev in self.events:
            if ev.kernel is not kernel:
                raise SimulationError("cannot mix events from different kernels")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(self._collect())
            return
        # Subscribe to every pending child before feeding the processed
        # ones, so a decision made here finds each pending child holding
        # exactly one callback of ours to take back.
        on_child = self._on_child
        for ev in self.events:
            if ev._state != PROCESSED:
                ev.callbacks.append(on_child)
        for ev in self.events:
            if ev._state == PROCESSED:
                on_child(ev)

    def _decide(self, ok: bool, value: Any) -> None:
        super()._decide(ok, value)
        # Decided: let go of the children still pending. Otherwise a loser
        # (an answered call's deadline) keeps this condition, and every
        # child value it holds, alive until it fires.
        on_child = self._on_child
        for ev in self.events:
            if ev._state != PROCESSED:
                ev.callbacks.remove(on_child)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev.value for ev in self.events if ev.processed and ev.ok}

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Succeeds when the first child event does (fails if that child fails).

    The success value is a dict of the child events that had succeeded at
    processing time, mapped to their values.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Succeeds when every child succeeds; fails on the first child failure."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())
