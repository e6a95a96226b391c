"""The discrete-event simulation kernel: clock, event heap, process spawner.

The kernel owns a priority queue of ``(time, priority, sequence, event)``
entries. :meth:`Kernel.run` repeatedly pops the earliest entry, advances the
clock to its time, and processes the event (running callbacks, which resume
processes, which usually schedule more events). Ties at equal time break by
insertion order, making the whole simulation deterministic.

Time is a ``float`` in **seconds** throughout the library.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator

from repro.sim.events import PROCESSED, AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.sanitizer import DeterminismSanitizer
from repro.util.errors import SimulationError
from repro.util.rng import RandomStreams
from repro.util.simlog import SimLogger

__all__ = ["Kernel"]

#: Priority for ordinary events. Lower runs first at equal time.
NORMAL = 1
#: Priority used for urgent bookkeeping (none currently; reserved).
URGENT = 0


class Kernel:
    """Simulation kernel.

    Parameters
    ----------
    seed:
        Master seed for the :class:`~repro.util.rng.RandomStreams` family
        exposed as :attr:`streams`.
    sanitize:
        Attach a :class:`~repro.sim.sanitizer.DeterminismSanitizer`
        (exposed as :attr:`sanitizer`): every pop feeds a cross-run order
        digest, and same-timestamp events with indistinguishable tie-break
        fingerprints are recorded as ambiguities. Observation only — a
        sanitized run is bit-identical to an unsanitized one.
    """

    def __init__(self, *, seed: int = 0, sanitize: bool = False):
        #: Current simulated time in seconds. Only the kernel writes it.
        self.now = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        self._sequence = 0
        self.streams = RandomStreams(seed)
        self.log = SimLogger(lambda: self.now)
        self._crashed_processes: list[tuple[Process, BaseException]] = []
        self.sanitizer: DeterminismSanitizer | None = (
            DeterminismSanitizer() if sanitize else None
        )
        #: Process currently being resumed (set by Process._resume); the
        #: sanitizer uses it to attribute scheduled events to their creator.
        self._active_process: Process | None = None
        self._enqueue_meta: dict[int, object] = {}
        #: Hooks ``fn(now)`` invoked whenever the clock advances to a new
        #: time (observation only — fired after ``now`` is updated, before
        #: the event at that time is processed). The time-series sampler in
        #: ``repro.obs`` registers here; empty by default, costing one
        #: truthiness check per step.
        self.on_advance: list = []

    # -- clock & stats ----------------------------------------------------

    @property
    def processed_events(self) -> int:
        """Total events processed so far (profiling/regression aid): every
        event is enqueued once and leaves the heap only to be processed."""
        return self._sequence - len(self._heap)

    # -- event construction -------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event; trigger it with ``succeed``/``fail``."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None, *, det_key: Any = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now.

        ``det_key`` optionally annotates the timeout with an explicit
        tie-break identity (e.g. the (src, dst) of an in-flight datagram)
        so the determinism sanitizer can distinguish same-time fan-outs.
        """
        return Timeout(self, delay, value, det_key=det_key)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def spawn(self, generator: Generator[Event, Any, Any], name: str | None = None) -> Process:
        """Start a new process running *generator*; returns the process."""
        return Process(self, generator, name=name)

    # -- scheduling (internal) ---------------------------------------------

    def _enqueue(self, event: Event, delay: float = 0.0, *, priority: int = NORMAL) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._sequence += 1
        if self.sanitizer is not None:
            active = self._active_process
            self._enqueue_meta[id(event)] = self.sanitizer.capture(
                active.name if active is not None else None
            )
        heappush(self._heap, (self.now + delay, priority, self._sequence, event))

    # -- main loop ----------------------------------------------------------

    def step(self) -> None:
        """Process exactly one event, advancing the clock to it."""
        heap = self._heap
        if not heap:
            raise SimulationError("step() on an empty event queue")
        time, priority, _seq, event = heappop(heap)
        if time > self.now:
            self.now = time
            if self.on_advance:
                for hook in self.on_advance:
                    hook(time)
        elif time < self.now:  # pragma: no cover - heap invariant
            raise SimulationError(f"time ran backwards: {time} < {self.now}")
        if self.sanitizer is not None:
            meta = self._enqueue_meta.pop(id(event), None)
            self.sanitizer.observe_pop(time, priority, event, meta)
        event._process()

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until no events remain.
            ``float``
                run until the clock reaches that time (events at exactly
                that time are processed; the clock finishes at ``until``).
            :class:`Event`
                run until the given event has been processed; returns its
                value (raising its exception if it failed).
        """
        stop_event: Event | None = None
        stop_time: float | None = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self.now:
                raise SimulationError(f"until={stop_time} is in the past (now={self.now})")

        # One step() per event: perf/layer_trace.py times each as a span.
        heap = self._heap
        step = self.step
        crashed = self._crashed_processes
        while heap:
            if stop_event is not None and stop_event._state == PROCESSED:
                break
            if stop_time is not None and heap[0][0] > stop_time:
                break
            step()
            if crashed:
                if stop_event is not None:
                    # A failure of the awaited process is observed by this
                    # very run() call — it is re-raised below, not an
                    # orphan crash.
                    crashed[:] = [
                        entry for entry in crashed if entry[0] is not stop_event
                    ]
                self._check_crashes()

        if stop_time is not None and self.now < stop_time:
            self.now = stop_time
        if self.sanitizer is not None:
            self.sanitizer.finish()
        self._check_crashes()
        if stop_event is not None:
            if not stop_event.processed:
                raise SimulationError("run() exhausted all events before `until` event triggered")
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        return None

    def _check_crashes(self) -> None:
        if self._crashed_processes:
            process, exc = self._crashed_processes[0]
            raise SimulationError(
                f"process {process.name!r} crashed at t={self.now}: {exc!r}"
            ) from exc

    def report_crash(self, process: Process, exc: BaseException) -> None:
        """Record the failure of a process nobody was waiting on, for
        :meth:`run` to raise as a :class:`SimulationError` instead of it
        being dropped silently."""
        self._crashed_processes.append((process, exc))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel t={self.now} queued={len(self._heap)} processed={self.processed_events}>"
