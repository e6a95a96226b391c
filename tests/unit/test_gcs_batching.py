"""Tests for the batched DATA and ORDER paths and the view-change flush fixes.

Four layers:

* :class:`~repro.gcs.batching.DataBatcher` in isolation — budgets, the
  adaptive Nagle window, view-change discard;
* the timer rules the DATA batcher and the sequencer's ORDER batch share
  through one :class:`~repro.gcs.batching.Coalescer`, each test run with
  both frame builders — including the stale-flusher hazard a count flush
  would introduce without the generation bump;
* :class:`~repro.gcs.ordering.SequencerEngine`'s ORDER coalescer — the
  size trigger at ``SEQUENCER_BATCH_MAX`` and the fixed window;
* :class:`~repro.gcs.member.GroupMember` end-to-end — batches unpack into
  the identical per-command delivery stream, the membership flush recuts
  outbound buffers (the "silent batch-drop on view change" fix): killing
  the sequencer mid-batch-window loses nothing and double-sequences
  nothing, and only DATA flushes reach the trace collector.
"""

import pytest

from types import SimpleNamespace

from repro.gcs import GroupConfig, GroupMember, boot_static_group
from repro.gcs.batching import DATA_BATCH_MAX_MSGS, DataBatcher
from repro.gcs.contract import GroupContract
from repro.gcs.messages import DataBatchMsg, DataMsg, MessageId, OrderMsg
from repro.gcs.ordering import SEQUENCER_BATCH_MAX, SequencerEngine
from repro.gcs.view import View
from repro.net import Address, Network
from repro.net.codec import encoded_size
from repro.obs.collector import attach_collector
from repro.sim import Kernel
from repro.util.errors import GroupCommError

GCS_PORT = 9


def addr(i):
    return Address(f"n{i}", GCS_PORT)


def mid(i, c):
    return MessageId(addr(i), c)


class Capture:
    def __init__(self):
        self.broadcasts = []

    def __call__(self, msg):
        self.broadcasts.append(msg)


class TestDataBatcher:
    def make(self, **kw):
        kernel = Kernel()
        cap = Capture()
        kw.setdefault("max_delay", 0.02)
        batcher = DataBatcher(kernel, cap, **kw)
        batcher.start_view(View(1, (addr(1), addr(2), addr(3))))
        return kernel, cap, batcher

    def test_validation(self):
        kernel = Kernel()
        with pytest.raises(GroupCommError):
            DataBatcher(kernel, Capture(), max_delay=0.0)
        with pytest.raises(GroupCommError):
            DataBatcher(kernel, Capture(), max_delay=0.01, min_delay=0.02)
        with pytest.raises(GroupCommError):
            DataBatcher(kernel, Capture(), max_delay=0.01, max_msgs=1)
        with pytest.raises(GroupCommError):
            DataBatcher(kernel, Capture(), max_delay=0.01, max_bytes=-1)

    def test_submit_without_view_rejected(self):
        batcher = DataBatcher(Kernel(), Capture(), max_delay=0.02)
        with pytest.raises(GroupCommError):
            batcher.submit(mid(1, 0), "agreed", "x")

    def test_burst_coalesced_into_one_frame(self):
        kernel, cap, batcher = self.make()
        for c in range(3):
            batcher.submit(mid(1, c), "agreed", f"m{c}")
        assert cap.broadcasts == []  # held for the Nagle window
        kernel.run(until=0.05)
        [frame] = cap.broadcasts
        assert isinstance(frame, DataBatchMsg)
        assert frame.view_id == 1
        assert [e[0] for e in frame.entries] == [mid(1, 0), mid(1, 1), mid(1, 2)]

    def test_single_entry_sent_as_plain_data(self):
        """Low offered load stays wire-identical to an unbatched run."""
        kernel, cap, batcher = self.make()
        batcher.submit(mid(1, 0), "agreed", "solo")
        kernel.run(until=0.05)
        [frame] = cap.broadcasts
        assert isinstance(frame, DataMsg)
        assert frame == DataMsg(mid(1, 0), 1, "agreed", "solo")
        assert batcher.stats["single_frames"] == 1

    def test_count_budget_flushes_immediately(self):
        kernel, cap, batcher = self.make(max_msgs=2)
        batcher.submit(mid(1, 0), "agreed", "a")
        batcher.submit(mid(1, 1), "agreed", "b")
        [frame] = cap.broadcasts  # no kernel.run needed: flushed on submit
        assert isinstance(frame, DataBatchMsg) and len(frame.entries) == 2
        assert batcher.stats["flushes_count"] == 1

    def test_byte_budget_flushes_immediately(self):
        kernel, cap, batcher = self.make(max_bytes=1)
        batcher.submit(mid(1, 0), "agreed", "fat-payload")
        [frame] = cap.broadcasts
        assert isinstance(frame, DataMsg)  # budget hit with one entry
        assert batcher.stats["flushes_bytes"] == 1

    def test_byte_budget_tracks_encoded_size(self):
        entry = (mid(1, 0), "agreed", "x" * 100)
        budget = encoded_size(entry) + 10  # one entry fits, two do not
        kernel, cap, batcher = self.make(max_bytes=budget)
        batcher.submit(*entry)
        assert cap.broadcasts == []
        batcher.submit(mid(1, 1), "agreed", "y" * 100)
        [frame] = cap.broadcasts
        assert isinstance(frame, DataBatchMsg) and len(frame.entries) == 2

    def test_window_shrinks_on_lonely_timer_flush(self):
        kernel, cap, batcher = self.make(max_delay=0.02, min_delay=0.002)
        assert batcher.delay == 0.02
        for _ in range(3):
            batcher.submit(mid(1, batcher.stats["submitted"]), "agreed", "x")
            kernel.run(until=kernel.now + 0.05)
        # Halved at each single-entry timer flush, floored at min_delay.
        assert batcher.delay == pytest.approx(0.0025)
        batcher.submit(mid(1, 99), "agreed", "x")
        kernel.run(until=kernel.now + 0.05)
        assert batcher.delay == pytest.approx(0.002)  # the floor holds

    def test_window_grows_on_budget_flush(self):
        kernel, cap, batcher = self.make(max_delay=0.02, max_msgs=2)
        batcher.delay = 0.004
        batcher.submit(mid(1, 0), "agreed", "a")
        batcher.submit(mid(1, 1), "agreed", "b")  # count flush -> grow
        assert batcher.delay == pytest.approx(0.008)
        batcher.submit(mid(1, 2), "agreed", "c")
        batcher.submit(mid(1, 3), "agreed", "d")
        assert batcher.delay == pytest.approx(0.016)
        batcher.submit(mid(1, 4), "agreed", "e")
        batcher.submit(mid(1, 5), "agreed", "f")
        assert batcher.delay == 0.02  # capped at max_delay

    def test_multi_entry_timer_flush_keeps_window(self):
        kernel, cap, batcher = self.make(max_delay=0.02)
        batcher.submit(mid(1, 0), "agreed", "a")
        batcher.submit(mid(1, 1), "agreed", "b")
        kernel.run(until=0.05)
        assert batcher.delay == 0.02

    def test_view_change_discards_pending_and_kills_timer(self):
        kernel, cap, batcher = self.make()
        batcher.submit(mid(1, 0), "agreed", "a")
        batcher.start_view(View(2, (addr(1), addr(2))))
        kernel.run(until=0.05)
        assert cap.broadcasts == []  # stale batch never crossed the wire
        assert len(batcher._entries) == 0

    def test_stale_timer_cannot_flush_new_views_batch_early(self):
        """Mirror of the sequencer's reused-view-id regression: a timer
        armed before stop() must not fire for a later same-id view."""
        kernel, cap, batcher = self.make(max_delay=0.02)
        batcher.submit(mid(1, 0), "agreed", "old")  # timer due at 0.02
        kernel.run(until=0.012)
        batcher.stop()
        batcher.start_view(View(1, (addr(1), addr(2))))  # same view id
        batcher.submit(mid(1, 1), "agreed", "new")  # own timer due at 0.032
        kernel.run(until=0.025)  # past the stale timer's deadline
        assert cap.broadcasts == []
        kernel.run(until=0.04)
        [frame] = cap.broadcasts
        assert isinstance(frame, DataMsg) and frame.payload == "new"

    def test_flush_observer_called_with_reason(self):
        flushed = []
        kernel = Kernel()
        batcher = DataBatcher(
            kernel, Capture(), max_delay=0.02, max_msgs=2,
            on_flush=lambda count, reason: flushed.append((count, reason)),
        )
        batcher.start_view(View(1, (addr(1),)))
        batcher.submit(mid(1, 0), "agreed", "a")
        batcher.submit(mid(1, 1), "agreed", "b")
        batcher.submit(mid(1, 2), "agreed", "c")
        batcher.drain()
        kernel.run(until=0.05)
        assert flushed == [(2, "count"), (1, "drain")]


def frame_ids(frame):
    """The message ids a DATA or ORDER frame carries, in order."""
    if isinstance(frame, DataMsg):
        return [frame.msg_id]
    if isinstance(frame, DataBatchMsg):
        return [entry[0] for entry in frame.entries]
    return [msg_id for _seq, msg_id in frame.assignments]


#: Both frame kinds' count budgets are 16, so every shared rule below runs
#: on the budgets the program uses.
BUDGET = DATA_BATCH_MAX_MSGS
assert SEQUENCER_BATCH_MAX == BUDGET


@pytest.fixture(params=["data", "order"])
def coalescing(request):
    """A coalescer with a 20 ms window in view 1, fed one message id per
    ``submit(c)``: a member's DataBatcher, or a sequencer's ORDER batch
    (ids ``mid(2, c)`` arriving as DATA from a peer)."""
    kernel = Kernel()
    cap = Capture()
    view = View(1, (addr(1), addr(2), addr(3)))
    if request.param == "data":
        coalescer = DataBatcher(kernel, cap, max_delay=0.02, max_msgs=BUDGET)
        coalescer.start_view(view)

        def submit(c):
            coalescer.submit(mid(2, c), "agreed", f"m{c}")
    else:
        engine = SequencerEngine(kernel, addr(1), cap, lambda dst, msg: None,
                                 batch_delay=0.02)
        engine.start_view(view, 0)
        coalescer = engine.batcher

        def submit(c):
            engine.on_data(mid(2, c), own=False)
    return SimpleNamespace(kernel=kernel, cap=cap, coalescer=coalescer,
                           submit=submit)


class TestSharedCoalescerRules:
    """One timer discipline for both outbound frame kinds."""

    def test_timer_rearms_after_count_flush(self, coalescing):
        """Regression guard for the hazard a count flush introduces: the
        timer armed for the first batch must not survive the flush alive,
        or (``_flusher.is_alive`` being the re-arm condition) the *next*
        batch would never get a timer and could wait forever."""
        kernel, cap, submit = coalescing.kernel, coalescing.cap, coalescing.submit
        for c in range(BUDGET):  # the first arms a timer, the last flushes
            submit(c)
        [frame] = cap.broadcasts  # flushed at submit time, t=0
        assert frame_ids(frame) == [mid(2, c) for c in range(BUDGET)]
        submit(BUDGET)  # must arm a FRESH timer
        kernel.run(until=0.05)
        assert len(cap.broadcasts) == 2
        assert frame_ids(cap.broadcasts[1]) == [mid(2, BUDGET)]

    def test_stale_timer_never_fires_early(self, coalescing):
        """The timer armed before a count flush never flushes the batch
        that follows it ahead of that batch's own deadline."""
        kernel, cap, submit = coalescing.kernel, coalescing.cap, coalescing.submit
        submit(0)
        kernel.run(until=0.01)
        for c in range(1, BUDGET):
            submit(c)  # count flush at t=0.01
        submit(BUDGET)  # new batch, timer due 0.03
        kernel.run(until=0.025)  # old timer's deadline (0.02) passes
        assert len(cap.broadcasts) == 1  # new batch still held
        kernel.run(until=0.04)
        assert len(cap.broadcasts) == 2

    def test_window_has_one_deadline(self, coalescing):
        """Nagle semantics: the window opens at the first entry, later
        entries never arm a second timer or extend it, and the next entry
        after that flush opens a fresh window."""
        kernel, cap, submit = coalescing.kernel, coalescing.cap, coalescing.submit
        submit(0)
        kernel.run(until=0.01)
        submit(1)
        kernel.run(until=0.021)  # 0.02 after the FIRST entry
        [frame] = cap.broadcasts
        assert frame_ids(frame) == [mid(2, 0), mid(2, 1)]
        submit(2)
        kernel.run(until=0.03)
        assert len(cap.broadcasts) == 1  # new window: due at ~0.041
        kernel.run(until=0.05)
        assert frame_ids(cap.broadcasts[1]) == [mid(2, 2)]

    def test_drain_cancels_the_timer(self, coalescing):
        kernel, cap, submit = coalescing.kernel, coalescing.cap, coalescing.submit
        coalescer = coalescing.coalescer
        submit(0)
        submit(1)
        entries = coalescer.drain()
        assert frame_ids(coalescer.build(1, entries)) == [mid(2, 0), mid(2, 1)]
        assert coalescer.drain() == ()
        assert len(coalescer._entries) == 0
        kernel.run(until=0.05)
        assert cap.broadcasts == []  # the drained batch is the caller's


class TestSequencerSizeTrigger:
    def make(self, batch_delay=0.02):
        kernel = Kernel()
        cap = Capture()
        engine = SequencerEngine(
            kernel, addr(1), cap, lambda dst, msg: None, batch_delay=batch_delay,
        )
        engine.start_view(View(1, (addr(1), addr(2), addr(3))), 0)
        return kernel, cap, engine

    def test_full_batch_flushes_without_waiting(self):
        kernel, cap, engine = self.make()
        for c in range(SEQUENCER_BATCH_MAX):
            engine.on_data(mid(2, c), own=False)
        [order] = cap.broadcasts  # flushed at submit time, t=0
        assert isinstance(order, OrderMsg)
        assert order.assignments == tuple(
            (c, mid(2, c)) for c in range(SEQUENCER_BATCH_MAX))

    def test_order_window_is_fixed(self):
        """A lonely timer flush does not tighten the ORDER window and a
        count flush does not widen it: the sequencer waits exactly
        ``sequencer_batch_delay``."""
        kernel, cap, engine = self.make(batch_delay=0.02)
        engine.on_data(mid(2, 0), own=False)
        kernel.run(until=0.05)  # single-entry timer flush
        for c in range(1, SEQUENCER_BATCH_MAX + 1):
            engine.on_data(mid(2, c), own=False)  # count flush
        assert len(cap.broadcasts) == 2
        assert engine.batcher.delay == 0.02
        assert engine.batcher.on_flush is None
        assert not isinstance(engine.batcher, DataBatcher)

    def test_no_order_coalescer_without_batching(self):
        kernel, cap, engine = self.make(batch_delay=0.0)
        assert engine.batcher is None
        engine.on_data(mid(2, 0), own=False)
        [order] = cap.broadcasts  # one ORDER frame per assignment, at once
        assert order.assignments == ((0, mid(2, 0)),)


# ---------------------------------------------------------------------------
# end-to-end: members on a simulated LAN
# ---------------------------------------------------------------------------

FAST = dict(
    heartbeat_interval=0.05,
    suspect_timeout=0.16,
    flush_timeout=0.3,
    retransmit_interval=0.02,
)


class Harness:
    def __init__(self, n, config, seed=1):
        self.kernel = Kernel(seed=seed)
        self.net = Network(self.kernel, shared_medium=False)
        self.members = {}
        self.contract = GroupContract()
        self.delivered = {}
        self.config = config
        for i in range(n):
            name = f"n{i}"
            self.net.register_node(name)
            self.delivered[name] = []
            self.members[name] = GroupMember(
                self.net.bind(name, GCS_PORT),
                config,
                on_deliver=lambda m, nm=name: self.delivered[nm].append(m),
            )
            self.contract.attach(self.members[name])
        boot_static_group(list(self.members.values()))

    def crash(self, name):
        self.members[name].stop()
        self.net.set_node_up(name, False)

    def payloads(self, name):
        return [m.payload for m in self.delivered[name]]


BATCHED = GroupConfig(
    **FAST, data_batch_delay=0.01, data_batch_min_delay=0.001,
)


class TestMemberDataBatching:
    def test_burst_delivered_identically_through_batches(self):
        h = Harness(3, BATCHED, seed=5)
        h.kernel.run(until=0.5)
        for k in range(12):
            h.members["n1"].multicast(f"m{k}")
        h.kernel.run(until=2.0)
        for name in h.members:
            assert h.payloads(name) == [f"m{k}" for k in range(12)]
        assert h.contract.close() == []
        # The burst actually crossed the wire coalesced.
        assert h.net.wire_bytes_by_type.get("DataBatchMsg", 0) > 0

    def test_batching_reduces_data_frames_on_wire(self):
        def data_frames(config):
            h = Harness(3, config, seed=5)
            h.kernel.run(until=0.5)
            sent_before = dict(h.net.offered_bytes_by_type)
            for k in range(20):
                h.members["n1"].multicast(("job", k))
            h.kernel.run(until=2.0)
            assert len(h.delivered["n2"]) == 20
            offered = h.net.offered_bytes_by_type
            return (
                offered.get("DataMsg", 0) - sent_before.get("DataMsg", 0),
                offered.get("DataBatchMsg", 0),
            )

        unbatched = GroupConfig(**FAST)
        plain_bytes, batch_bytes = data_frames(unbatched)
        assert plain_bytes > 0 and batch_bytes == 0
        plain_b, batch_b = data_frames(BATCHED)
        # The burst rides DataBatchMsg frames; per-command framing overhead
        # is amortized, so total DATA-path bytes shrink.
        assert batch_b > 0
        assert plain_b + batch_b < plain_bytes

    def test_zero_delay_config_builds_no_batcher(self):
        h = Harness(2, GroupConfig(**FAST), seed=1)
        assert all(m.batcher is None for m in h.members.values())

    def test_pending_data_batch_survives_view_change(self):
        """The flush fix, DATA side: commands still sitting in the Nagle
        window when a member crashes elsewhere are drained into the flush
        and delivered exactly once — never silently dropped."""
        config = GroupConfig(**FAST, data_batch_delay=5.0)
        h = Harness(3, config, seed=7)
        h.kernel.run(until=0.5)
        # These sit in n1's batcher: the 5 s window dwarfs the run.
        h.members["n1"].multicast("held-a")
        h.members["n1"].multicast("held-b")
        assert len(h.members["n1"].batcher._entries) == 2
        h.crash("n2")  # forces a flush + view change at n0/n1
        h.kernel.run(until=5.0)
        for name in ("n0", "n1"):
            assert h.payloads(name).count("held-a") == 1
            assert h.payloads(name).count("held-b") == 1
        assert h.contract.close() == []


class TestSequencerBatchDropRegression:
    def test_kill_sequencer_mid_batch_window(self):
        """The headline bugfix scenario: the sequencer dies while holding
        un-broadcast ORDER assignments. Survivors hold the DATA (broadcast
        precedes ordering), the flush recuts it into the closing list — no
        command lost, none double-sequenced."""
        config = GroupConfig(**FAST, sequencer_batch_delay=0.5)
        h = Harness(3, config, seed=11)
        h.kernel.run(until=0.5)
        for k in range(4):
            h.members["n1"].multicast(f"m{k}")
        # Let the DATA reach the sequencer (n0) but crash it well inside its
        # 0.5 s ORDER batch window, assignments made but never broadcast.
        h.kernel.run(until=0.6)
        seq_engine = h.members["n0"].engine
        assert len(seq_engine.batcher._entries) == 4  # the bug's precondition
        h.crash("n0")
        h.kernel.run(until=6.0)
        for name in ("n1", "n2"):
            payloads = h.payloads(name)
            for k in range(4):
                assert payloads.count(f"m{k}") == 1, (name, payloads)
        assert h.contract.close() == []

    def test_surviving_sequencer_batch_rides_flush_in_original_order(self):
        """When the sequencer itself survives the view change, its buffered
        assignments are drained into the flush report — the closing list
        preserves the order it already assigned."""
        config = GroupConfig(**FAST, sequencer_batch_delay=0.5)
        h = Harness(3, config, seed=13)
        h.kernel.run(until=0.5)
        for k in range(4):
            h.members["n2"].multicast(f"m{k}")
        h.kernel.run(until=0.6)
        assert len(h.members["n0"].engine.batcher._entries) == 4
        h.crash("n2")  # sequencer n0 survives; the sender dies
        h.kernel.run(until=6.0)
        for name in ("n0", "n1"):
            assert h.payloads(name) == [f"m{k}" for k in range(4)]
        assert h.contract.close() == []


class TestOnlyDataFlushesAreObserved:
    def test_order_coalescer_reports_nothing_to_the_collector(self):
        """With both batching knobs on, the sequencer's ORDER coalescer
        flushes too, but ``gcs.batch.*`` counts only DATA flushes."""
        config = GroupConfig(
            **FAST, data_batch_delay=0.01, data_batch_min_delay=0.001,
            sequencer_batch_delay=0.01,
        )
        h = Harness(3, config, seed=5)
        collector = attach_collector(h.net)
        h.kernel.run(until=0.5)
        for k in range(12):
            h.members["n1"].multicast(f"m{k}")
        h.kernel.run(until=2.0)
        for name in h.members:
            assert h.payloads(name) == [f"m{k}" for k in range(12)]
        order = h.members["n0"].engine.batcher  # n0 is the sequencer
        assert order.on_flush is None
        assert order.stats["flushes_timer"] + order.stats["flushes_count"] > 0
        data_flushes = sum(
            count for m in h.members.values()
            for key, count in m.batcher.stats.items()
            if key.startswith("flushes_")
        )
        observed = sum(counter.value for _labels, counter
                       in collector.registry.find("gcs.batch.flushes"))
        assert observed == data_flushes > 0
        batch_nodes = {e.node for e in collector.events if e.kind == "gcs.batch"}
        assert batch_nodes == {"n1"}  # the sender; never the sequencer n0
