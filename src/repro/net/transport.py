"""Reliable FIFO point-to-point channels over the lossy datagram fabric.

:class:`Transport` gives a daemon TCP-like channel semantics per peer:

* every payload is delivered **at most once** (duplicate suppression),
* payloads from one sender arrive **in send order** (per-peer FIFO),
* lost datagrams are **retransmitted** until cumulatively acknowledged,
* a peer that crashes and restarts begins a fresh *epoch*, so stale
  sequence numbers from its previous life are not mistaken for new traffic.

The group communication system builds its multicast on these channels: total
order and view synchrony are GCS concerns, but per-link reliability lives
here, mirroring how Transis rode on UDP with its own recovery layer.

Wire frames are the typed records of :mod:`repro.net.frames`
(:class:`~repro.net.frames.DataFrame`, :class:`~repro.net.frames.AckFrame`,
:class:`~repro.net.frames.RawFrame`), encoded byte-exactly by the codec.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Sequence

from repro.net.address import Address, Delivery
from repro.net.frames import AckFrame, DataFrame, RawFrame
from repro.net.network import Endpoint
from repro.util.errors import NetworkError

__all__ = ["Transport", "ReliableChannel"]

def _next_epoch(network) -> int:
    """Allocate a channel epoch unique within *network*'s simulation.

    Per-network (not module-level) so that two simulations in one
    interpreter draw identical epoch numbers — epochs ride in every frame
    and frame bytes feed the bandwidth model.
    """
    counter = getattr(network, "_transport_epochs", None)
    if counter is None:
        counter = network._transport_epochs = itertools.count(1)
    return next(counter)


class ReliableChannel:
    """Sender-side state for one destination (one direction)."""

    def __init__(self, dst: Address, epoch: int):
        self.dst = dst
        self.epoch = epoch
        self.next_seq = 0
        #: seq -> payload, unacknowledged and subject to retransmission.
        self.unacked: dict[int, Any] = {}
        self.acked_through = -1


class _PeerReceiveState:
    """Receiver-side reordering state for one (peer, epoch)."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        self.next_expected = 0
        self.out_of_order: dict[int, Any] = {}


class Transport:
    """Reliable FIFO messaging bound to one :class:`Endpoint`.

    Parameters
    ----------
    endpoint:
        The bound endpoint to send/receive through.
    retransmit_interval:
        Seconds between retransmission sweeps of unacked frames.
    on_message:
        ``callback(src: Address, payload)`` invoked for each in-order,
        deduplicated application payload.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        *,
        retransmit_interval: float = 0.05,
        on_message: Callable[[Address, Any], None] | None = None,
    ):
        self.endpoint = endpoint
        self.kernel = endpoint.network.kernel
        self.retransmit_interval = retransmit_interval
        self.epoch = _next_epoch(endpoint.network)
        self._channels: dict[Address, ReliableChannel] = {}
        #: dst -> epoch to use when a channel dropped by forget_peer is
        #: recreated (see forget_peer).
        self._reopen_epochs: dict[Address, int] = {}
        self._recv_states: dict[Address, _PeerReceiveState] = {}
        self._on_message = on_message
        self._on_raw: Callable[[Address, Any], None] | None = None
        self._closed = False
        endpoint.on_delivery(self._on_delivery)
        self._retransmitter = self.kernel.spawn(
            self._retransmit_loop(), name=f"transport-rtx@{endpoint.address}"
        )
        self.stats = {"sent": 0, "retransmitted": 0, "delivered": 0, "duplicates": 0}

    # -- public API ------------------------------------------------------------

    @property
    def address(self) -> Address:
        return self.endpoint.address

    def on_raw(self, callback: Callable[[Address, Any], None] | None) -> None:
        """Handler for frames that bypass the reliable layer (heartbeats)."""
        self._on_raw = callback

    def send_raw(self, dst: Address | Sequence[Address], payload: Any) -> None:
        """Fire-and-forget datagram: no sequencing, no retransmission.

        Used for traffic where timeliness beats reliability — a retransmitted
        stale heartbeat would defeat the failure detector's purpose. *dst*
        may be a group of addresses: the unreliable plane is link-level
        multicast, one frame on the wire however many peers hear it.
        """
        if self._closed:
            raise NetworkError(f"transport at {self.address} is closed")
        self.endpoint.send(dst, RawFrame(payload))

    def send(self, dst: Address, payload: Any) -> None:
        """Queue *payload* for reliable in-order delivery to *dst*."""
        if self._closed:
            raise NetworkError(f"transport at {self.address} is closed")
        channel = self._channels.get(dst)
        if channel is None:
            epoch = self._reopen_epochs.pop(dst, self.epoch)
            channel = self._channels[dst] = ReliableChannel(dst, epoch)
        seq = channel.next_seq
        channel.next_seq += 1
        channel.unacked[seq] = payload
        self.stats["sent"] += 1
        self.endpoint.send(dst, DataFrame(channel.epoch, seq, payload))

    def forget_peer(self, dst: Address) -> None:
        """Drop sender state for *dst* (it was declared failed); pending
        frames to it are abandoned rather than retransmitted forever.

        If the peer turns out to be alive after all (false suspicion, healed
        partition), later sends must open a *fresh epoch*: re-using the old
        one would restart the sequence numbers at 0 below the peer's
        ``next_expected``, and every frame on the reopened channel — join
        requests included — would be discarded as a duplicate forever."""
        if self._channels.pop(dst, None) is not None:
            self._reopen_epochs[dst] = _next_epoch(self.endpoint.network)

    def close(self) -> None:
        """Stop retransmitting and detach from the endpoint."""
        if self._closed:
            return
        self._closed = True
        self._retransmitter.interrupt("transport closed")
        if not self.endpoint.closed:
            self.endpoint.on_delivery(None)

    # -- wire handling ---------------------------------------------------------

    def _on_delivery(self, delivery: Delivery) -> None:
        frame = delivery.payload
        if isinstance(frame, DataFrame):
            self._handle_data(delivery.src, frame)
        elif isinstance(frame, AckFrame):
            self._handle_ack(delivery.src, frame)
        elif isinstance(frame, RawFrame):
            if self._on_raw is not None:
                self._on_raw(delivery.src, frame.payload)
        # anything else is not ours; ignore garbage

    def _handle_data(self, src: Address, frame: DataFrame) -> None:
        epoch, seq, payload = frame.epoch, frame.seq, frame.payload
        state = self._recv_states.get(src)
        if state is None or state.epoch != epoch:
            if state is not None and epoch < state.epoch:
                return  # stale traffic from the peer's previous life
            state = self._recv_states[src] = _PeerReceiveState(epoch)
        if seq < state.next_expected or seq in state.out_of_order:
            self.stats["duplicates"] += 1
        else:
            state.out_of_order[seq] = payload
            while state.next_expected in state.out_of_order:
                ready = state.out_of_order.pop(state.next_expected)
                state.next_expected += 1
                self.stats["delivered"] += 1
                if self._on_message is not None:
                    self._on_message(src, ready)
        # Cumulative ack for everything contiguously received.
        if not self.endpoint.closed:
            self.endpoint.send(src, AckFrame(epoch, state.next_expected - 1))

    def _handle_ack(self, src: Address, frame: AckFrame) -> None:
        epoch, cum_seq = frame.epoch, frame.cum_seq
        channel = self._channels.get(src)
        if channel is None or channel.epoch != epoch:
            return
        channel.acked_through = max(channel.acked_through, cum_seq)
        for seq in [s for s in channel.unacked if s <= cum_seq]:
            del channel.unacked[seq]

    def _retransmit_loop(self):
        while True:
            yield self.kernel.timeout(self.retransmit_interval)
            if self._closed or self.endpoint.closed:
                return
            if not self.endpoint.network.node_is_up(self.address.node):
                # Down or blacked out, but not torn down (a crash closes the
                # endpoint and is caught above): stay dormant and resume
                # retransmitting when the node's network comes back.
                continue
            for _dst, channel in sorted(self._channels.items()):
                for seq in sorted(channel.unacked):
                    self.stats["retransmitted"] += 1
                    self.endpoint.send(
                        channel.dst,
                        DataFrame(channel.epoch, seq, channel.unacked[seq]),
                    )
