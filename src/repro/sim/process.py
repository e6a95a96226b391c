"""Simulation processes: generators driven by the kernel.

A process wraps a generator that ``yield``\\ s events. Whenever the awaited
event is processed, the kernel resumes the generator with the event's value
(or throws the event's failure exception into it). The process object is
itself an :class:`~repro.sim.events.Event` that triggers when the generator
finishes, so processes can wait on one another:

>>> def child(k):
...     yield k.timeout(2)
...     return "done"
>>> def parent(k):
...     result = yield k.spawn(child(k))
...     assert result == "done"

A waiting process can be *interrupted*: :meth:`Process.interrupt` throws
:class:`~repro.util.errors.Interrupt` into the generator at the current
simulated time, detaching it from whatever it was waiting on. Daemons use
this for shutdown and crash handling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.sim.events import PENDING, PROCESSED, Event
from repro.util.errors import Interrupt, ProcessDied, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel

__all__ = ["Process"]


class Process(Event):
    """A running generator on the simulation timeline.

    Created via :meth:`Kernel.spawn`; do not instantiate directly.
    """

    __slots__ = ("generator", "name", "_waiting_on", "_interrupts")

    def __init__(self, kernel: "Kernel", generator: Generator[Event, Any, Any], name: str | None = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"spawn() needs a generator (did you forget to call the function?): {generator!r}"
            )
        super().__init__(kernel)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Event | None = None
        self._interrupts: list[Interrupt] = []
        # Kick off on the next kernel step at the current time.
        bootstrap = Event(kernel)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    # -- public API ------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op (matching the common
        pattern of a supervisor interrupting workers that may have exited).
        Multiple interrupts queue and are delivered one per resumption.
        """
        if self.triggered:
            return
        self._interrupts.append(Interrupt(cause))
        if self._waiting_on is not None:
            target, self._waiting_on = self._waiting_on, None
            target.cancelled = True
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        # Deliver on the next kernel step so interrupt() is safe to call
        # from within another process or plain callback.
        wake = Event(self.kernel)
        wake.callbacks.append(self._resume)
        wake.succeed()

    # -- kernel plumbing --------------------------------------------------

    def _resume(self, event: Event) -> None:
        if self._state != PENDING:
            return
        self._waiting_on = None
        # Attribute everything the generator schedules during this resumption
        # to this process (the determinism sanitizer reads _active_process).
        kernel = self.kernel
        previous_active = kernel._active_process
        kernel._active_process = self
        try:
            try:
                if self._interrupts:
                    exc = self._interrupts.pop(0)
                    target = self.generator.throw(exc)
                elif event._ok:
                    target = self.generator.send(event._value)
                else:
                    value = event._value
                    if isinstance(event, Process) and not isinstance(value, BaseException):
                        value = ProcessDied(event, value)  # pragma: no cover - safety net
                    target = self.generator.throw(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except Interrupt:
                # An uncaught interrupt terminates the process quietly: this is
                # the normal way daemons shut down.
                self.succeed(None)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate via event
                self.fail(exc)
                if not self.callbacks:
                    # Nobody is waiting on this process: remember the crash so
                    # Kernel.run() can surface it instead of silently dropping it.
                    kernel.report_crash(self, exc)
                return
            if not isinstance(target, Event):
                exc = SimulationError(f"process {self.name} yielded non-event {target!r}")
                self.fail(exc)
                if not self.callbacks:
                    kernel.report_crash(self, exc)
                return
            if target.kernel is not kernel:
                exc = SimulationError("process yielded an event from a different kernel")
                self.fail(exc)
                if not self.callbacks:
                    kernel.report_crash(self, exc)
                return
            if target._state == PROCESSED:
                # Already settled: resume immediately via a zero-delay event.
                wake = Event(kernel)
                wake.callbacks.append(lambda _ev: self._resume(target))
                wake.succeed()
                self._waiting_on = None
            else:
                target.callbacks.append(self._resume)
                self._waiting_on = target
        finally:
            kernel._active_process = previous_active

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "alive" if self.is_alive else self.state
        return f"<Process {self.name} {status}>"
