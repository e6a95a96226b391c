"""The group member: virtual synchrony tying ordering, delivery, membership.

One :class:`GroupMember` is one process's presence in the group. It owns a
reliable transport, a failure detector, an ordering engine and a delivery
queue, and coordinates two protocol engines that keep them consistent
across failures, joins and leaves:

* :class:`~repro.gcs.flush.FlushEngine` — the membership-change state
  machine: trigger sets, initiator election, the
  ``FlushReq``/``FlushOk``/``NewView`` conversation, the
  ``(new_view_id, attempt, initiator)`` epoch order that resolves
  competing flushes, and the stalled-flush watchdog policy.
* :class:`~repro.gcs.recovery.RecoveryTracker` — exclusion detection and
  rejoin: buffering of future-view traffic, the excluded-member verdict,
  join bookkeeping, and the anti-entropy probes that merge healed
  partitions.

The façade keeps what is *not* membership protocol: the ordered-delivery
hot path — ``multicast`` assigns a globally unique ``MessageId`` and fans
DATA out over reliable FIFO channels, the ordering engine broadcasts
sequence assignments, the delivery queue releases messages in gap-free
sequence order (SAFE messages additionally wait for cumulative
``StableMsg`` acks from every member) — and view installation, which cuts
every component over at once and delivers the closing list as the new
view's totally ordered prefix.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.gcs.batching import DATA_BATCH_MAX_BYTES, DATA_BATCH_MAX_MSGS, DataBatcher
from repro.gcs.config import GroupConfig
from repro.gcs.delivery import DeliveryQueue
from repro.gcs.failure_detector import FailureDetector
from repro.gcs.flush import FlushEngine
from repro.gcs.lifecycle import FLUSHING, IDLE, JOINING, NORMAL, STOPPED
from repro.gcs.messages import (
    AGREED,
    INCARNATION_SHIFT,
    SAFE,
    DataBatchMsg,
    DataMsg,
    DeliveredMessage,
    FlushOk,
    FlushReq,
    Heartbeat,
    JoinReq,
    LeaveReq,
    MessageId,
    NewView,
    OrderMsg,
    Probe,
    StableMsg,
    TokenMsg,
)
from repro.gcs.ordering import make_engine
from repro.gcs.recovery import RecoveryTracker
from repro.gcs.view import View
from repro.net.address import Address
from repro.net.network import Endpoint
from repro.net.transport import Transport
from repro.obs.collector import collector_of
from repro.util.errors import GroupCommError, NotInView

__all__ = [
    "GroupMember",
    "boot_static_group",
    "IDLE",
    "JOINING",
    "NORMAL",
    "FLUSHING",
    "STOPPED",
]


class GroupMember:
    """One member of one process group.

    Parameters
    ----------
    endpoint:
        A bound network endpoint dedicated to this member.
    config:
        Protocol tuning; see :class:`~repro.gcs.config.GroupConfig`.
    on_deliver:
        ``callback(msg: DeliveredMessage)`` — the totally ordered stream.
    on_view:
        ``callback(view: View)`` — called at each view installation, before
        the view's transitional deliveries.
    incarnation:
        How many processes were instantiated at this address before this one
        (from stable storage): it numbers our multicasts apart from theirs,
        which the survivors remember having delivered.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        config: GroupConfig | None = None,
        *,
        on_deliver: Callable[[DeliveredMessage], None] | None = None,
        on_view: Callable[[View], None] | None = None,
        incarnation: int = 0,
    ):
        if config is None:
            config = GroupConfig()
        self.config = config
        self.network = endpoint.network
        self.kernel = endpoint.network.kernel
        self.address = endpoint.address
        self.on_deliver = on_deliver
        self.on_view = on_view

        self._cpu_queue = None
        self._cpu_worker = None
        if config.processing_delay > 0:
            # Model per-message CPU cost: inbound protocol traffic funnels
            # through a serial worker that charges processing_delay each.
            from repro.sim.resources import Store

            self._cpu_queue = Store(self.kernel)
            self._cpu_worker = self.kernel.spawn(
                self._cpu_loop(), name=f"gcs-cpu@{endpoint.address}"
            )
        self.transport = Transport(
            endpoint,
            retransmit_interval=config.retransmit_interval,
            on_message=self._enqueue_protocol,
        )
        self.transport.on_raw(self._on_raw)
        self.detector = FailureDetector(
            self.transport,
            heartbeat_interval=config.heartbeat_interval,
            suspect_timeout=config.suspect_timeout,
            beacon=self._beacon,
            on_suspect=self._on_suspect,
        )
        self.queue = DeliveryQueue(self.address)
        self.engine = make_engine(
            config.ordering,
            self.kernel,
            self.address,
            self._bcast,
            self.transport.send,
            batch_delay=config.sequencer_batch_delay,
            rotation=config.group_id,
        )
        # Forward ordering assignments to an attached trace collector
        # (observation only — the engine behaves identically either way).
        self.engine.observer = self._order_observed
        #: Shard label the observability layer stamps on this group's
        #: spans/metrics (None for single-group runs — historical output).
        self._obs_shard = config.group_id if config.shard_count > 1 else None
        self.detector._obs_shard = self._obs_shard
        #: Outbound DATA coalescing (None = unbatched, the default: every
        #: multicast is its own DataMsg frame, byte-for-byte unchanged).
        self.batcher: DataBatcher | None = None
        if config.data_batch_delay > 0:
            self.batcher = DataBatcher(
                self.kernel,
                self._bcast,
                max_delay=config.data_batch_delay,
                min_delay=config.data_batch_min_delay,
                max_msgs=DATA_BATCH_MAX_MSGS,
                max_bytes=DATA_BATCH_MAX_BYTES,
                on_flush=self._batch_flushed,
            )

        self.state = IDLE
        self.view: View | None = None
        self._msg_counter = incarnation << INCARNATION_SHIFT
        #: Own multicasts not yet delivered: msg_id -> (service, payload).
        self._own_pending: dict[MessageId, tuple[str, Any]] = {}
        self._last_stable_sent = -1
        #: What our last *sent* StableMsg carried; the beacon repeats it and
        #: a deferred ack must exceed it to be sent. Not
        #: ``_last_stable_sent``: that is stamped when a deferred ack is
        #: scheduled, and announcing it early would bypass the deferral.
        self._stable_announced = -1
        self._last_beacon: Heartbeat | None = None
        #: View id -> member -> highest ``acked_through`` heard from it in
        #: that view, taken on *arrival*. The beacon is checked against this
        #: and not against the delivery queue (updated only after the CPU
        #: slot), or every beacon that overtakes a queued StableMsg would
        #: charge a second one. Keyed by view, never ordered across views:
        #: a rejoin may land in a view numbered below the one it left.
        self._stable_heard: dict[int, dict[Address, int]] = {}

        self.flush = FlushEngine(self)
        self.recovery = RecoveryTracker(self)
        # Typed handler-dispatch table; ordinary traffic is view-gated,
        # membership traffic goes straight to the flush engine.
        self._dispatch: dict[type, Callable[[Address, Any], None]] = {
            DataMsg: self._gated(self._handle_data),
            DataBatchMsg: self._gated(self._handle_data_batch),
            OrderMsg: self._gated(self._handle_order),
            StableMsg: self._gated(self._handle_stable),
            TokenMsg: self._gated(self._handle_token),
            JoinReq: self.flush.on_join_req,
            LeaveReq: self.flush.on_leave_req,
            FlushReq: self.flush.on_flush_req,
            FlushOk: self.flush.on_flush_ok,
            NewView: self.flush.on_new_view,
        }

        self._watchdog = self.kernel.spawn(
            self._watchdog_loop(), name=f"gcs-watchdog@{self.address}"
        )
        self._gc_task = None
        if config.gc_interval > 0:
            self._gc_task = self.kernel.spawn(
                self._gc_loop(), name=f"gcs-gc@{self.address}"
            )
        # Observability counters.
        self.stats = {
            "multicasts": 0,
            "delivered": 0,
            "view_changes": 0,
            "flushes_started": 0,
            "rejoins": 0,
            #: Acks recovered from a beacon (the StableMsg copy was lost).
            "stable_repairs": 0,
        }

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def boot(self, initial_members: Iterable[Address]) -> None:
        """Install a static initial view (all founding members call this
        with the same list — the standard bootstrap, no protocol needed)."""
        if self.state != IDLE:
            raise GroupCommError(f"boot() in state {self.state}")
        members = tuple(sorted(set(initial_members)))
        if self.address not in members:
            raise GroupCommError("boot list must include this member")
        self.install_view(View(1, members), closing=())

    def join(self, contacts: Iterable[Address]) -> None:
        """Ask current members to merge us into the group (with no other
        contact there is nobody to ask, and the member stays joining)."""
        if self.state != IDLE:
            raise GroupCommError(f"join() in state {self.state}")
        self.state = JOINING
        self.recovery.join_contacts = [c for c in contacts if c != self.address]
        self.recovery.send_join_requests()

    def recover(self, view_id: int, members: Iterable[Address],
                contacts: Iterable[Address]) -> None:
        """Return after a failure whose last installed view was *view_id*
        of *members*: join through *contacts* like :meth:`join`, and if no
        group answers, form that view again once every one of its members
        has returned (:meth:`FlushEngine.await_returners`). A member still
        in a view dissolves it first."""
        if self.state == IDLE:
            self.join(contacts)
        else:
            self.recovery.become_joiner(list(contacts))
        self.flush.await_returners(view_id, tuple(members))

    def leave(self) -> None:
        """Voluntarily depart. Mirrors JOSHUA semantics: a leave is handled
        as a forced failure — we announce it, then stop."""
        if self.in_group and self.view is not None:
            for member in self.view.members:
                if member != self.address:
                    self.transport.send(member, LeaveReq(self.address))
        self.stop()

    def stop(self) -> None:
        """Halt all activity (process kill / node crash path)."""
        if self.state == STOPPED:
            return
        self.state = STOPPED
        self.detector.stop()
        self.engine.stop()
        if self.batcher is not None:
            self.batcher.stop()
        self._watchdog.interrupt("member stopped")
        if self._cpu_worker is not None:
            self._cpu_worker.interrupt("member stopped")
        if self._gc_task is not None:
            self._gc_task.interrupt("member stopped")
        self.transport.close()
        if not self.transport.endpoint.closed:
            self.transport.endpoint.close()

    def multicast(self, payload: Any, service: str = AGREED) -> MessageId:
        """Reliably, totally-ordered multicast *payload* to the group.

        During a membership change the message is held and (re)transmitted
        in the next view; if we survive, it is delivered exactly once.
        """
        if service not in (AGREED, SAFE):
            raise GroupCommError(f"unknown service {service!r}")
        if not self.can_multicast:
            raise NotInView(f"multicast in state {self.state}")
        msg_id = MessageId(self.address, self._msg_counter)
        self._msg_counter += 1
        self._own_pending[msg_id] = (service, payload)
        self.stats["multicasts"] += 1
        collector = collector_of(self.network)
        if collector is not None:
            collector.gcs_multicast(self.address.node, msg_id, service, payload,
                                    shard=self._obs_shard)
        if self.state == NORMAL:
            self._send_data(msg_id, service, payload)
        return msg_id

    @property
    def in_group(self) -> bool:
        """Operating in a view or flushing into the next one."""
        return self.state in (NORMAL, FLUSHING)

    @property
    def can_multicast(self) -> bool:
        """Whether :meth:`multicast` would be accepted right now (the member
        is operating in a view or flushing into the next one — not idle,
        (re)joining after an exclusion, or stopped)."""
        return self.in_group and self.view is not None

    # ------------------------------------------------------------------
    # outbound helpers
    # ------------------------------------------------------------------

    def _bcast(self, msg: Any) -> None:
        if self.view is None:
            return
        for member in self.view.members:
            self.transport.send(member, msg)

    def _send_data(self, msg_id: MessageId, service: str, payload: Any) -> None:
        if self.batcher is not None:
            self.batcher.submit(msg_id, service, payload)
            return
        data = DataMsg(msg_id, self.view.view_id, service, payload)
        self._bcast(data)

    def flush_outbound(self) -> None:
        """Push everything buffered on the outbound path onto the wire *and*
        into our own queue, synchronously.

        Called by the flush engine the moment we agree to a membership
        change, **before** :meth:`DeliveryQueue.flush_report` is taken. Both
        coalescers are drained in turn, DATA first, each batch built into
        a frame by its own builder:

        * a pending DATA batch still inside the :class:`DataBatcher` Nagle
          window is broadcast and self-applied, so those commands appear in
          our flush report as *known* messages (and, if we are the
          sequencer, pick up their sequence assignments right here);
        * sequence assignments buffered inside the sequencer's ORDER batch
          window are broadcast and self-applied, so the assignments the
          sequencer already made (they advanced ``next_seq``) ride the
          closing list instead of being silently dropped with the view.

        Self-application is synchronous (loopback frames are also sent, and
        are suppressed as duplicates on arrival) because the flush report is
        built in this same call stack — an async loopback would miss it.
        """
        if self.view is None:
            return
        for coalescer in (self.batcher, self.engine.batcher):
            if coalescer is not None and (entries := coalescer.drain()):
                frame = coalescer.build(self.view.view_id, entries)
                self._bcast(frame)
                self._dispatch[type(frame)](self.address, frame)

    def _broadcast_stable(self) -> None:
        ready = self.queue.agreed_ready_through()
        if ready <= self._last_stable_sent:
            return
        self._last_stable_sent = ready
        delay = 0.0
        if self.view.size > 1:
            delay = self.config.stable_ack_base + (
                self.config.stable_ack_slot * self.view.rank_of(self.address)
            )
        if delay <= 0:
            self._send_stable(self.view, ready)
            return
        view = self.view

        def deferred():
            yield self.kernel.timeout(delay)
            if self.state == STOPPED or self.view is not view:
                return
            # Ack whatever is contiguously ready *now* (may exceed `ready`),
            # unless a later deferral already announced it: every member
            # would pay a CPU slot to read a repeat.
            now_ready = self.queue.agreed_ready_through()
            if now_ready > self._stable_announced:
                self._send_stable(view, now_ready)

        self.kernel.spawn(deferred(), name=f"gcs-stable@{self.address}")

    def _send_stable(self, view: View, acked_through: int) -> None:
        """One unreliable group frame to the whole view, ourselves included
        (our copy takes its CPU slot like any peer's). A lost copy is
        repaired by the next beacon, which repeats *acked_through*."""
        self._stable_announced = acked_through
        self.transport.send_raw(view.members, StableMsg(view.view_id, acked_through))

    def _beacon(self) -> Heartbeat:
        """This tick's beacon (the detector builds one every live tick,
        peers or not). No beacon comes back to us, so the copy of our own
        ack that the loopback lost (sent while our node was frozen) is
        repaired here — once two ticks running announce the same ack: it
        has then had a whole interval to loop back, where an ack sent
        microseconds before this tick is still in flight."""
        if self.view is None:
            return Heartbeat(-1, -1)
        beacon = Heartbeat(self.view.view_id, self._stable_announced)
        if beacon == self._last_beacon:
            self._repair_stable(self.address, beacon)
        self._last_beacon = beacon
        return beacon

    # ------------------------------------------------------------------
    # inbound dispatch
    # ------------------------------------------------------------------

    def _enqueue_protocol(self, src: Address, msg: Any) -> None:
        if self._cpu_queue is None:
            self._on_protocol(src, msg)
        else:
            self._cpu_queue.put_nowait((src, msg))

    def _cpu_loop(self):
        while True:
            src, msg = yield self._cpu_queue.get()
            yield self.kernel.timeout(self.config.processing_delay)
            if self.state == STOPPED:
                return
            self._on_protocol(src, msg)

    def _on_raw(self, src: Address, payload: Any) -> None:
        if isinstance(payload, StableMsg):
            self._hear_stable(src, payload)
        elif isinstance(payload, Heartbeat):
            self.detector.heard_from(src)
            # A beacon of another view is liveness only: never handled,
            # never buffered.
            if self.view is not None and payload.view_id == self.view.view_id:
                self._repair_stable(src, payload)
        elif isinstance(payload, Probe):
            self.recovery.handle_probe(src, payload)

    def _repair_stable(self, src: Address, beacon: Heartbeat) -> None:
        """Acks are cumulative, so a beacon of our view announcing more than
        we have heard from *src* in it stands in for the StableMsg that was
        lost (-1, the peer has sent none in this view, never exceeds)."""
        heard = self._stable_heard.get(beacon.view_id, {})
        if beacon.acked_through > heard.get(src, -1):
            self.stats["stable_repairs"] += 1
            self._hear_stable(src, StableMsg(beacon.view_id, beacon.acked_through))

    def _hear_stable(self, src: Address, stable: StableMsg) -> None:
        heard = self._stable_heard.setdefault(stable.view_id, {})
        heard[src] = max(heard.get(src, -1), stable.acked_through)
        self._enqueue_protocol(src, stable)

    def _on_protocol(self, src: Address, msg: Any) -> None:
        if self.state == STOPPED:
            return
        self.detector.heard_from(src)
        handler = self._dispatch.get(type(msg))
        if handler is not None:
            handler(src, msg)

    def _gated(self, handler) -> Callable[[Address, Any], None]:
        """Wrap *handler* with view gating: current view -> handle, future
        view -> buffer until installed, past view -> drop as stale."""

        def dispatch(src: Address, msg: Any) -> None:
            current = self.view.view_id if self.view is not None else -1
            if msg.view_id == current:
                handler(src, msg)
            elif msg.view_id > current:
                self.recovery.buffer_future(msg.view_id, src, msg)
            # else: stale view, drop silently

        return dispatch

    # -- ordinary traffic ------------------------------------------------

    def _handle_data(self, src: Address, data: DataMsg) -> None:
        if self.queue.add_data(data):
            self.engine.on_data(data.msg_id, own=data.msg_id.sender == self.address)
            self._broadcast_stable()
            self._deliver_ready()

    def _handle_data_batch(self, src: Address, batch: DataBatchMsg) -> None:
        fresh = self.queue.add_batch(batch)
        for data in fresh:
            self.engine.on_data(data.msg_id, own=data.msg_id.sender == self.address)
        if fresh:
            self._broadcast_stable()
            self._deliver_ready()

    def _handle_order(self, src: Address, order: OrderMsg) -> None:
        self.queue.add_assignments(order.assignments)
        self._broadcast_stable()
        self._deliver_ready()

    def _handle_stable(self, src: Address, stable: StableMsg) -> None:
        self.queue.record_stable(src, stable.acked_through)
        self._deliver_ready()

    def _handle_token(self, src: Address, token: TokenMsg) -> None:
        self.engine.on_token(src, token)

    def _deliver_ready(self) -> None:
        collector = collector_of(self.network)
        for msg in self.queue.pop_deliverable():
            self._own_pending.pop(msg.msg_id, None)
            self.stats["delivered"] += 1
            if collector is not None:
                collector.gcs_delivered(self.address.node, msg,
                                        self.queue.snapshot(),
                                        shard=self._obs_shard)
            if self.on_deliver is not None:
                self.on_deliver(msg)

    def _order_observed(self, seq: int, msg_id: MessageId) -> None:
        collector = collector_of(self.network)
        if collector is not None:
            collector.gcs_ordered(self.address.node, seq, msg_id,
                                  shard=self._obs_shard)

    def _batch_flushed(self, count: int, reason: str) -> None:
        collector = collector_of(self.network)
        if collector is not None:
            collector.gcs_batch_flush(self.address.node, count, reason,
                                      shard=self._obs_shard)

    def _on_suspect(self, peer: Address) -> None:
        self.flush.on_suspect(peer)

    # ------------------------------------------------------------------
    # view installation
    # ------------------------------------------------------------------

    def install_view(self, view: View, closing: tuple) -> None:
        """Cut over every component to *view*, delivering its closing list
        as the totally ordered prefix. Called by the flush engine when a
        ``NewView`` lands (and by :meth:`boot` for the static view)."""
        departed = (
            set(self.view.members) - set(view.members) if self.view is not None else set()
        )
        # Sorted: forget_peer allocates reopen epochs from a simulation-wide
        # counter, so with >= 2 departures the iteration order is on the wire.
        for gone in sorted(departed):
            self.transport.forget_peer(gone)
        self.view = view
        self.recovery.note_members(view)
        self.queue.start_view(view, closing)
        self.engine.start_view(view, len(closing))
        if self.batcher is not None:
            self.batcher.start_view(view)
        self.detector.monitor(view.members)
        for member in view.members:
            self.detector.forgive(member)
        self.flush.on_view_installed(view)
        self.state = NORMAL
        self._last_stable_sent = self._stable_announced = -1
        self._last_beacon = None
        # Keep what this view's members already said in it (acks that ran
        # ahead of our NewView are buffered, and were heard); drop the rest.
        self._stable_heard = {
            view.view_id: self._stable_heard.get(view.view_id, {})
        }
        self.recovery.future_first_seen = None
        self.stats["view_changes"] += 1
        collector = collector_of(self.network)
        if collector is not None:
            sequencer_of = getattr(self.engine, "sequencer_of", None)
            sequencer = (
                str(sequencer_of(view)) if sequencer_of is not None else None
            )
            collector.gcs_view(
                self.address.node, view.view_id,
                [str(m) for m in view.members], sequencer,
                shard=self._obs_shard,
            )
        if self.on_view is not None:
            self.on_view(view)
        # Transitional deliveries: the agreed part of the closing list is
        # deliverable immediately; SAFE entries wait for new-view stability.
        self._broadcast_stable()
        self._deliver_ready()
        # Re-multicast own undelivered messages the closing did not carry.
        closing_ids = {mid for mid, _s, _p in closing}
        for msg_id, (service, payload) in sorted(self._own_pending.items()):
            if msg_id not in closing_ids and not self.queue.was_delivered(msg_id):
                self._send_data(msg_id, service, payload)
        # Replay buffered traffic for this view; drop older buffers.
        for src, msg in self.recovery.collect_buffered(view.view_id):
            self._on_protocol(src, msg)
        # Residual membership work (e.g. joiners queued during the change)?
        self.flush.maybe_initiate()

    def dissolve_view(self) -> None:
        """Leave the current view without installing another (the recovery
        tracker then re-enters us as a fresh joiner). What was heard in the
        old lineage goes with it: the view we join may reuse its numbers."""
        self.state = JOINING
        self.view = None
        self.engine.stop()
        self.flush.reset()
        self._stable_heard.clear()
        self.detector.monitor(())

    # ------------------------------------------------------------------
    # watchdog
    # ------------------------------------------------------------------

    def _watchdog_loop(self):
        period = self.config.flush_timeout / 2
        while True:
            yield self.kernel.timeout(period)
            if self.state == STOPPED:
                return
            now = self.kernel.now
            if self.state == JOINING:
                self.recovery.send_join_requests()
                if self.flush.last_view is not None:
                    self.flush.asked += 1
                    self.flush.try_recovery()
            elif self.state == FLUSHING:
                if now - self.flush.entered_at >= self.config.flush_timeout:
                    self.flush.on_watchdog_timeout(now)
            elif self.state == NORMAL:
                if self.flush.membership_dirty():
                    self.flush.maybe_initiate()
                elif self.recovery.future_stale(now):
                    self.recovery.rejoin_after_exclusion()
                else:
                    self.recovery.send_probes()

    def _gc_loop(self):
        while True:
            yield self.kernel.timeout(self.config.gc_interval)
            if self.state == STOPPED:
                return
            if self.state == NORMAL:
                self.stats["gc_released"] = self.stats.get("gc_released", 0) + self.queue.gc()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GroupMember {self.address} {self.state} view={self.view}>"


def boot_static_group(members: list[GroupMember]) -> View:
    """Boot several members into one initial view (test/startup helper)."""
    addresses = [m.address for m in members]
    for member in members:
        member.boot(addresses)
    return members[0].view
