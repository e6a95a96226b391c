"""Unit tests for Store (mailboxes, apply and CPU queues)."""

import pytest

from repro.sim import Kernel, Store


@pytest.fixture
def kernel():
    return Kernel()


class TestStore:
    def test_put_then_get(self, kernel):
        store = Store(kernel)
        got = []
        def consumer(k):
            got.append((yield store.get()))
        store.put_nowait("msg")
        kernel.spawn(consumer(kernel))
        kernel.run()
        assert got == ["msg"]

    def test_get_blocks_until_put(self, kernel):
        store = Store(kernel)
        got = []
        def consumer(k):
            got.append(((yield store.get()), k.now))
        def producer(k):
            yield k.timeout(5)
            store.put_nowait("late")
        kernel.spawn(consumer(kernel))
        kernel.spawn(producer(kernel))
        kernel.run()
        assert got == [("late", 5.0)]

    def test_fifo_order_items(self, kernel):
        store = Store(kernel)
        for i in range(3):
            store.put_nowait(i)
        got = []
        def consumer(k):
            while True:
                got.append((yield store.get()))
        kernel.spawn(consumer(kernel))
        kernel.run(until=1)
        assert got == [0, 1, 2]

    def test_fifo_order_getters(self, kernel):
        store = Store(kernel)
        got = []
        def consumer(k, tag):
            got.append((tag, (yield store.get())))
        kernel.spawn(consumer(kernel, "first"))
        kernel.spawn(consumer(kernel, "second"))
        def producer(k):
            yield k.timeout(1)
            store.put_nowait("a")
            store.put_nowait("b")
        kernel.spawn(producer(kernel))
        kernel.run()
        assert got == [("first", "a"), ("second", "b")]

    def test_len_and_items(self, kernel):
        store = Store(kernel)
        store.put_nowait(1)
        store.put_nowait(2)
        assert len(store) == 2

    def test_cancel_all_fails_waiters(self, kernel):
        store = Store(kernel)
        caught = []
        def consumer(k):
            try:
                yield store.get()
            except RuntimeError:
                caught.append(k.now)
        kernel.spawn(consumer(kernel))
        def killer(k):
            yield k.timeout(2)
            store.cancel_all(RuntimeError("node down"))
        kernel.spawn(killer(kernel))
        kernel.run()
        assert caught == [2.0]

    def test_interrupted_getter_not_served(self, kernel):
        """A getter whose process was interrupted must not steal an item."""
        store = Store(kernel)
        got = []
        def victim(k):
            try:
                yield store.get()
            except Exception:
                pass
        def healthy(k):
            got.append((yield store.get()))
        v = kernel.spawn(victim(kernel))
        kernel.spawn(healthy(kernel))
        def driver(k):
            yield k.timeout(1)
            v.interrupt()
            yield k.timeout(1)
            store.put_nowait("item")
        kernel.spawn(driver(kernel))
        kernel.run()
        assert got == ["item"]

