"""Unit tests for the DES kernel: events, processes, run() semantics."""

import pytest

from repro.sim import AllOf, AnyOf, Interrupt, Kernel
from repro.util.errors import SimulationError


@pytest.fixture
def kernel():
    return Kernel()


class TestClockAndRun:
    def test_clock_starts_at_zero(self, kernel):
        assert kernel.now == 0.0

    def test_timeout_advances_clock(self, kernel):
        kernel.timeout(3.5)
        kernel.run()
        assert kernel.now == 3.5

    def test_run_until_time_stops_clock_exactly(self, kernel):
        kernel.timeout(10.0)
        kernel.run(until=4.0)
        assert kernel.now == 4.0
        kernel.run()
        assert kernel.now == 10.0

    def test_run_until_time_processes_events_at_boundary(self, kernel):
        fired = []
        def proc(k):
            yield k.timeout(4.0)
            fired.append(k.now)
        kernel.spawn(proc(kernel))
        kernel.run(until=4.0)
        assert fired == [4.0]

    def test_run_until_past_time_rejected(self, kernel):
        kernel.timeout(5)
        kernel.run()
        with pytest.raises(SimulationError, match="in the past"):
            kernel.run(until=1.0)

    def test_run_until_event_returns_value(self, kernel):
        def proc(k):
            yield k.timeout(1)
            return "payload"
        p = kernel.spawn(proc(kernel))
        assert kernel.run(until=p) == "payload"

    def test_run_until_never_triggered_event(self, kernel):
        ev = kernel.event()
        kernel.timeout(1)
        with pytest.raises(SimulationError, match="exhausted all events"):
            kernel.run(until=ev)

    def test_events_at_same_time_fifo(self, kernel):
        order = []
        def proc(k, tag):
            yield k.timeout(1.0)
            order.append(tag)
        for tag in "abc":
            kernel.spawn(proc(kernel, tag))
        kernel.run()
        assert order == ["a", "b", "c"]

    def test_step_on_empty_queue(self, kernel):
        with pytest.raises(SimulationError, match="empty event queue"):
            kernel.step()

    def test_negative_delay_rejected(self, kernel):
        with pytest.raises(SimulationError, match="negative timeout"):
            kernel.timeout(-1)

    def test_processed_events_counter(self, kernel):
        kernel.timeout(1)
        kernel.timeout(2)
        kernel.run()
        assert kernel.processed_events == 2


class TestEvents:
    def test_succeed_delivers_value(self, kernel):
        got = []
        def proc(k, ev):
            got.append((yield ev))
        ev = kernel.event()
        kernel.spawn(proc(kernel, ev))
        ev.succeed(42)
        kernel.run()
        assert got == [42]

    def test_fail_raises_in_waiter(self, kernel):
        caught = []
        def proc(k, ev):
            try:
                yield ev
            except ValueError as exc:
                caught.append(str(exc))
        ev = kernel.event()
        kernel.spawn(proc(kernel, ev))
        ev.fail(ValueError("boom"))
        kernel.run()
        assert caught == ["boom"]

    def test_double_trigger_rejected(self, kernel):
        ev = kernel.event()
        ev.succeed()
        with pytest.raises(SimulationError, match="cannot trigger twice"):
            ev.succeed()

    def test_fail_requires_exception(self, kernel):
        with pytest.raises(TypeError):
            kernel.event().fail("not an exception")  # type: ignore[arg-type]

    def test_value_before_trigger_rejected(self, kernel):
        with pytest.raises(SimulationError):
            _ = kernel.event().value

    def test_yield_already_processed_event(self, kernel):
        """A process may wait on an event that already fired."""
        ev = kernel.event()
        ev.succeed("early")
        kernel.run()
        got = []
        def proc(k):
            got.append((yield ev))
        kernel.spawn(proc(kernel))
        kernel.run()
        assert got == ["early"]

    def test_timeout_cannot_be_retriggered(self, kernel):
        t = kernel.timeout(1)
        with pytest.raises(SimulationError):
            t.succeed()
        with pytest.raises(SimulationError):
            t.fail(ValueError())


class TestConditions:
    def test_any_of_returns_first(self, kernel):
        got = {}
        def proc(k):
            t1, t2 = k.timeout(1), k.timeout(5)
            result = yield k.any_of([t1, t2])
            got.update({"result": result, "time": k.now, "fast": t1})
        kernel.spawn(proc(kernel))
        kernel.run()
        assert got["time"] == 1
        assert list(got["result"]) == [got["fast"]]

    def test_all_of_waits_for_all(self, kernel):
        got = {}
        def proc(k):
            t1, t2 = k.timeout(1), k.timeout(5)
            result = yield k.all_of([t1, t2])
            got.update({"fired": list(result) == [t1, t2], "time": k.now})
        kernel.spawn(proc(kernel))
        kernel.run()
        assert got == {"fired": True, "time": 5}

    def test_all_of_empty_succeeds_immediately(self, kernel):
        done = []
        def proc(k):
            yield k.all_of([])
            done.append(k.now)
        kernel.spawn(proc(kernel))
        kernel.run()
        assert done == [0.0]

    def test_any_of_propagates_failure(self, kernel):
        caught = []
        def proc(k, ev):
            try:
                yield k.any_of([ev, k.timeout(10)])
            except RuntimeError:
                caught.append(True)
        ev = kernel.event()
        kernel.spawn(proc(kernel, ev))
        ev.fail(RuntimeError("x"))
        kernel.run()
        assert caught == [True]

    def test_all_of_fails_fast(self, kernel):
        caught = []
        def proc(k, ev):
            try:
                yield k.all_of([ev, k.timeout(10)])
            except RuntimeError:
                caught.append(k.now)
        ev = kernel.event()
        kernel.spawn(proc(kernel, ev))
        ev.fail(RuntimeError("x"))
        kernel.run()
        assert caught == [0.0]

    def test_condition_over_already_processed_children(self, kernel):
        ev = kernel.event()
        ev.succeed("v")
        kernel.run()
        got = []
        def proc(k):
            got.append((yield k.all_of([ev])))
        kernel.spawn(proc(kernel))
        kernel.run()
        assert got[0][ev] == "v"


class TestProcesses:
    def test_process_is_event(self, kernel):
        def child(k):
            yield k.timeout(2)
            return "done"
        def parent(k, c):
            result = yield c
            return result + "!"
        c = kernel.spawn(child(kernel))
        p = kernel.spawn(parent(kernel, c))
        assert kernel.run(until=p) == "done!"

    def test_spawn_requires_generator(self, kernel):
        def not_gen(k):
            return 5
        with pytest.raises(SimulationError, match="needs a generator"):
            kernel.spawn(not_gen(kernel))  # type: ignore[arg-type]

    def test_yield_non_event_fails_process(self, kernel):
        def proc(k):
            yield 42  # type: ignore[misc]
        kernel.spawn(proc(kernel))
        with pytest.raises(SimulationError, match="non-event"):
            kernel.run()

    def test_unobserved_crash_raises_in_strict_mode(self, kernel):
        def proc(k):
            yield k.timeout(1)
            raise RuntimeError("daemon bug")
        kernel.spawn(proc(kernel))
        with pytest.raises(SimulationError, match="daemon bug"):
            kernel.run()

    def test_observed_crash_propagates_to_waiter_only(self, kernel):
        caught = []
        def child(k):
            yield k.timeout(1)
            raise RuntimeError("boom")
        def parent(k, c):
            try:
                yield c
            except RuntimeError:
                caught.append(True)
        c = kernel.spawn(child(kernel))
        kernel.spawn(parent(kernel, c))
        kernel.run()
        assert caught == [True]

    def test_is_alive(self, kernel):
        def proc(k):
            yield k.timeout(5)
        p = kernel.spawn(proc(kernel))
        assert p.is_alive
        kernel.run()
        assert not p.is_alive


class TestInterrupts:
    def test_interrupt_wakes_waiting_process(self, kernel):
        log = []
        def proc(k):
            try:
                yield k.timeout(100)
            except Interrupt as i:
                log.append((k.now, i.cause))
        p = kernel.spawn(proc(kernel))
        def killer(k):
            yield k.timeout(3)
            p.interrupt("shutdown")
        kernel.spawn(killer(kernel))
        kernel.run(until=10)
        assert log == [(3.0, "shutdown")]

    def test_uncaught_interrupt_terminates_quietly(self, kernel):
        def proc(k):
            yield k.timeout(100)
        p = kernel.spawn(proc(kernel))
        def killer(k):
            yield k.timeout(1)
            p.interrupt()
        kernel.spawn(killer(kernel))
        kernel.run(until=5)
        assert p.processed and p.ok

    def test_interrupt_finished_process_noop(self, kernel):
        def proc(k):
            yield k.timeout(1)
        p = kernel.spawn(proc(kernel))
        kernel.run()
        p.interrupt()  # must not raise

    def test_interrupted_process_can_continue(self, kernel):
        log = []
        def proc(k):
            try:
                yield k.timeout(100)
            except Interrupt:
                pass
            yield k.timeout(2)
            log.append(k.now)
        p = kernel.spawn(proc(kernel))
        def killer(k):
            yield k.timeout(3)
            p.interrupt()
        kernel.spawn(killer(kernel))
        kernel.run()
        assert log == [5.0]

    def test_interrupt_does_not_leak_to_original_event(self, kernel):
        """After an interrupt, the originally-awaited event firing must not
        resume the process a second time."""
        log = []
        def proc(k, ev):
            try:
                yield ev
            except Interrupt:
                log.append("interrupted")
            yield k.timeout(10)
            log.append("woke")
        ev = kernel.event()
        p = kernel.spawn(proc(kernel, ev))
        def killer(k):
            yield k.timeout(1)
            p.interrupt()
            yield k.timeout(1)
            ev.succeed("late")
        kernel.spawn(killer(kernel))
        kernel.run()
        assert log == ["interrupted", "woke"]
