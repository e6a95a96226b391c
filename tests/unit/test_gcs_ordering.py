"""Direct unit tests for the ordering engines (beyond the end-to-end runs)."""

import pytest

from repro.gcs.messages import MessageId, OrderMsg, TokenMsg
from repro.gcs.ordering import SequencerEngine, TokenRingEngine, make_engine
from repro.gcs.view import View
from repro.net.address import Address
from repro.sim import Kernel


def addr(i):
    return Address(f"n{i}", 9)


def mid(i, c):
    return MessageId(addr(i), c)


class Capture:
    """Records broadcast/send calls from an engine."""

    def __init__(self):
        self.broadcasts = []
        self.sends = []

    def broadcast(self, msg):
        self.broadcasts.append(msg)

    def send(self, dst, msg):
        self.sends.append((dst, msg))


class TestFactory:
    def test_make_engine(self):
        kernel = Kernel()
        cap = Capture()
        assert isinstance(
            make_engine("sequencer", kernel, addr(1), cap.broadcast, cap.send),
            SequencerEngine,
        )
        assert isinstance(
            make_engine("token", kernel, addr(1), cap.broadcast, cap.send),
            TokenRingEngine,
        )
        with pytest.raises(ValueError):
            make_engine("alphabetical", kernel, addr(1), cap.broadcast, cap.send)


class TestSequencerEngine:
    def make(self, rank=1, batch_delay=0.0):
        kernel = Kernel()
        cap = Capture()
        engine = SequencerEngine(
            kernel, addr(rank), cap.broadcast, cap.send, batch_delay=batch_delay
        )
        engine.start_view(View(1, (addr(1), addr(2), addr(3))), 0)
        return kernel, cap, engine

    def test_sequencer_orders_in_arrival_order(self):
        kernel, cap, engine = self.make(rank=1)  # lowest = sequencer
        engine.on_data(mid(2, 0), own=False)
        engine.on_data(mid(3, 0), own=False)
        assignments = [a for msg in cap.broadcasts for a in msg.assignments]
        assert assignments == [(0, mid(2, 0)), (1, mid(3, 0))]

    def test_non_sequencer_is_silent(self):
        kernel, cap, engine = self.make(rank=2)
        engine.on_data(mid(2, 0), own=True)
        assert cap.broadcasts == []

    def test_duplicate_data_ordered_once(self):
        kernel, cap, engine = self.make(rank=1)
        engine.on_data(mid(2, 0), own=False)
        engine.on_data(mid(2, 0), own=False)
        assert len(cap.broadcasts) == 1

    def test_view_change_resets_counter(self):
        kernel, cap, engine = self.make(rank=1)
        engine.on_data(mid(2, 0), own=False)
        engine.start_view(View(2, (addr(1), addr(2))), 5)
        engine.on_data(mid(2, 1), own=False)
        assert cap.broadcasts[-1].assignments == ((5, mid(2, 1)),)

    def test_batching_collects_assignments(self):
        kernel, cap, engine = self.make(rank=1, batch_delay=0.01)
        engine.on_data(mid(2, 0), own=False)
        engine.on_data(mid(2, 1), own=False)
        assert cap.broadcasts == []  # held for the batch window
        kernel.run(until=0.02)
        [msg] = cap.broadcasts
        assert msg.assignments == ((0, mid(2, 0)), (1, mid(2, 1)))

    def test_batch_dropped_on_view_change(self):
        kernel, cap, engine = self.make(rank=1, batch_delay=0.01)
        engine.on_data(mid(2, 0), own=False)
        engine.start_view(View(2, (addr(1), addr(2))), 0)
        kernel.run(until=0.05)
        assert cap.broadcasts == []  # stale batch never flushed

    def test_stop_drops_pending_batch(self):
        kernel, cap, engine = self.make(rank=1, batch_delay=0.01)
        engine.on_data(mid(2, 0), own=False)
        engine.stop()
        kernel.run(until=0.05)
        assert cap.broadcasts == []

    def test_stale_flusher_cannot_race_reused_view_id(self):
        """Regression: a flush timer spawned before stop() must not fire
        for a later view that happens to reuse the same numeric view id.

        Pre-fix the timer only compared view ids, so after stop() + a
        same-id reinstall it flushed the *new* batch early — here at
        t=0.012 (the leftover timer's deadline) instead of waiting for the
        new batch's own 0.02 window."""
        kernel, cap, engine = self.make(rank=1, batch_delay=0.02)
        engine.on_data(mid(2, 0), own=False)  # arms a flusher due at 0.02
        kernel.run(until=0.012)
        engine.stop()
        # Same view id, fresh membership epoch (e.g. a quick rejoin).
        engine.start_view(View(1, (addr(1), addr(2), addr(3))), 5)
        engine.on_data(mid(3, 0), own=False)
        kernel.run(until=0.025)  # old timer's deadline (0.02) passes here
        assert cap.broadcasts == []  # new batch must still be held
        kernel.run(until=0.04)
        [msg] = cap.broadcasts
        assert msg.assignments == ((5, mid(3, 0)),)


class TestTokenRingEngine:
    def make(self, rank=2):
        kernel = Kernel()
        cap = Capture()
        engine = TokenRingEngine(kernel, addr(rank), cap.broadcast, cap.send)
        engine.start_view(View(1, (addr(1), addr(2), addr(3))), 0)
        return kernel, cap, engine

    def test_coordinator_regenerates_token(self):
        kernel, cap, engine = self.make(rank=1)
        kernel.run(until=engine.idle_delay * 2)
        # Coordinator held the (empty) token and forwarded it onward.
        assert any(isinstance(m, TokenMsg) for _d, m in cap.sends)

    def test_holder_orders_own_pending(self):
        kernel, cap, engine = self.make(rank=2)
        engine.on_data(mid(2, 0), own=True)
        engine.on_data(mid(2, 1), own=True)
        engine.on_data(mid(3, 0), own=False)  # not ours: not ordered by us
        engine.on_token(addr(1), TokenMsg(1, 7))
        [order] = [m for m in cap.broadcasts if isinstance(m, OrderMsg)]
        assert order.assignments == ((7, mid(2, 0)), (8, mid(2, 1)))
        # Token forwarded to our successor with the advanced counter.
        tokens = [m for _d, m in cap.sends if isinstance(m, TokenMsg)]
        assert tokens and tokens[-1].next_seq == 9
        assert cap.sends[-1][0] == addr(3)

    def test_stale_token_ignored(self):
        kernel, cap, engine = self.make(rank=2)
        engine.on_data(mid(2, 0), own=True)
        engine.on_token(addr(1), TokenMsg(99, 0))  # wrong view
        assert cap.broadcasts == []

    def test_idle_token_forwarded_after_delay(self):
        kernel, cap, engine = self.make(rank=2)
        engine.on_token(addr(1), TokenMsg(1, 0))
        assert cap.sends == []  # deferred
        kernel.run(until=engine.idle_delay * 2)
        assert any(isinstance(m, TokenMsg) for _d, m in cap.sends)

    def test_view_change_invalidates_inflight_pass(self):
        kernel, cap, engine = self.make(rank=2)
        engine.on_token(addr(1), TokenMsg(1, 0))
        engine.start_view(View(2, (addr(2), addr(3))), 0)
        cap.sends.clear()
        kernel.run(until=engine.idle_delay * 3)
        # Only the new view's token circulates; the old pass was dropped.
        assert all(m.view_id == 2 for _d, m in cap.sends if isinstance(m, TokenMsg))
