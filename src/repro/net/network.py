"""The network fabric: endpoints, datagram delivery, fault semantics.

:class:`Network` is the single shared LAN of the simulated cluster. Daemons
:meth:`~Network.bind` an :class:`Endpoint` (a ``(node, port)`` address plus a
mailbox) and exchange *datagrams*: unreliable, unordered-between-pairs
messages addressed to one endpoint or — link-level multicast — to a *group*
of them. Reliability and FIFO ordering are layered on top by
:mod:`repro.net.transport`, mirroring how real stacks separate IP from TCP.

Group send: a frame addressed to a group is **one transmission** — encoded
once, offered once (``sent``, ``bytes_offered``, the ``on_frame`` hook) and,
if at least one off-node receiver survives the drop decisions, charged to
the wire once (``bytes_wire`` and the shared medium's occupancy, at one
site). Everything below that belongs to a *receiver* and is decided per
receiver, in sorted address order: the fault semantics, the propagation
jitter draw, the delivery-time re-check, a fresh decode and one delivery
event — observably the loop of one-address sends it replaces, so
``bytes_delivered`` may exceed ``bytes_offered``.

Fault semantics (all fail-stop, like the paper's):

* destination node down → message silently dropped;
* destination port unbound → dropped (connection refused is invisible to a
  datagram sender);
* sender's node down → :class:`~repro.util.errors.NodeDown` is raised — a
  crashed daemon must not transmit (once per frame, group or not);
* pair unreachable per :class:`~repro.net.partition.PartitionState` → dropped;
* random loss per the link model → dropped.

Beyond fail-stop, the fault-injection layer (:mod:`repro.faults`) drives
three extra knobs:

* **pause/resume** (:meth:`Network.pause_node`): the node's NIC goes dark —
  ``node_is_up`` reports ``False`` and traffic to/from it is dropped — but
  its endpoints stay bound and its processes keep running, modelling a
  wedged NIC or a switch port blackout rather than a crash;
* **per-node slowdown** (:meth:`Network.set_node_slowdown`): extra one-way
  latency added to every message touching the node (an overloaded host);
* **drop filters** (:meth:`Network.add_drop_filter`): predicates that force-
  drop matching datagrams, for targeted loss such as ordering-token frames.

Contention: with ``shared_medium=True`` (the default, matching the paper's
hub) all *off-node* transmissions serialise through a single token process —
each occupies the wire for its serialisation time before propagating. With a
switched model, messages only experience their own delay.

Serialization boundary: every payload is encoded to bytes by the
:data:`~repro.net.codec.WIRE` codec at send time — the encoded length (plus
a fixed datagram header) is what the link and contention models charge — and
decoded to a *fresh* object at delivery time, so no Python object identity
ever crosses a node boundary. With ``Kernel(sanitize=True)`` the determinism
sanitizer additionally audits each delivery for aliasing between the sent
and the delivered object graphs.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Sequence

from repro.net.address import Address, Delivery, canonical_group
from repro.net.codec import WIRE
from repro.net.link import FAST_ETHERNET, LOOPBACK, LinkModel
from repro.net.partition import PartitionState
from repro.sim.kernel import Kernel
from repro.sim.resources import Store
from repro.util.errors import AddressInUse, NetworkError, NodeDown

__all__ = ["Endpoint", "Network", "DATAGRAM_OVERHEAD"]

#: Fixed per-datagram header charge (IP + UDP), added to every encoded frame.
DATAGRAM_OVERHEAD = 28

def _payload_kind(payload: Any) -> str:
    """Ledger key for the per-message-type byte accounting.

    Envelope frames (DataFrame, RawFrame, rpc Request/Reply) are unwrapped
    one level so the ledger reports the protocol message that caused the
    traffic, not the envelope."""
    inner = getattr(payload, "payload", None)
    if inner is not None:
        return type(inner).__name__
    return type(payload).__name__


class Endpoint:
    """A bound ``(node, port)`` with a mailbox of :class:`Delivery` records.

    Obtained from :meth:`Network.bind`. Receiving daemons either block on
    :meth:`recv` or register an :meth:`on_delivery` callback (used by
    daemons that multiplex many conversations).
    """

    def __init__(self, network: "Network", address: Address):
        self.network = network
        self.address = address
        self.mailbox: Store = Store(network.kernel)
        self._callback: Callable[[Delivery], None] | None = None
        self.closed = False

    def send(self, dst: Address | Sequence[Address], payload: Any):
        """Transmit a datagram to one address or to a group of them (one
        frame, see :meth:`Network.send`); returns immediately."""
        self.network.send(self.address, dst, payload)

    def recv(self):
        """Event that succeeds with the next :class:`Delivery`."""
        return self.mailbox.get()

    def on_delivery(self, callback: Callable[[Delivery], None] | None) -> None:
        """Route future deliveries to *callback* instead of the mailbox."""
        self._callback = callback

    def close(self) -> None:
        """Unbind; subsequent messages to this address are dropped."""
        if not self.closed:
            self.network._unbind(self)
            self.closed = True
            self.mailbox.cancel_all(NetworkError(f"endpoint {self.address} closed"))

    def _deliver(self, delivery: Delivery) -> None:
        if self._callback is not None:
            self._callback(delivery)
        else:
            self.mailbox.put_nowait(delivery)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"<Endpoint {self.address} {state}>"


class Network:
    """The cluster's shared LAN.

    Parameters
    ----------
    kernel:
        Simulation kernel.
    shared_medium:
        Serialise off-node transmissions through a single shared wire (hub
        behaviour). Switched behaviour (no cross-message contention) when
        false.
    """

    def __init__(self, kernel: Kernel, *, shared_medium: bool = True):
        self.kernel = kernel
        #: Link model for off-node messages, read at every send: the paper's
        #: Fast Ethernet, swapped at run time by the fault injector's loss
        #: bursts (and by tests that want another link).
        self.lan: LinkModel = FAST_ETHERNET
        self.shared_medium = shared_medium
        self.partitions = PartitionState()
        self._nodes_up: dict[str, bool] = {}
        self._paused: set[str] = set()
        self._slowdown: dict[str, float] = {}
        self._drop_filters: dict[int, Callable[[Address, Address, Any], bool]] = {}
        self._drop_filter_ids = 0
        self._pair_seq: dict[tuple[Address, Address], int] = {}
        self._endpoints: dict[Address, Endpoint] = {}
        #: Next uniform double in [0, 1) of the ``net`` stream (loss and
        #: jitter).
        self._draw: Callable[[], float] = kernel.streams.get("net").random
        #: Simulated time at which the shared wire next becomes free.
        self._wire_free_at = 0.0
        # Delivery statistics (observability for tests and benches). Byte
        # counters are measured, not estimated: encoded frame + header.
        #   bytes_offered   — every frame a live sender handed to the fabric;
        #   bytes_wire      — off-node frames that actually occupied the wire
        #                     (survived down/partition/filter/loss) — this is
        #                     exactly what the contention model charged for;
        #   bytes_delivered — frames that reached a bound endpoint.
        self.stats = {"sent": 0, "delivered": 0, "dropped_down": 0,
                      "dropped_unreachable": 0, "dropped_loss": 0,
                      "dropped_unbound": 0, "dropped_paused": 0,
                      "dropped_filtered": 0, "bytes_offered": 0,
                      "bytes_wire": 0, "bytes_delivered": 0}
        #: Off-node bytes-on-wire per protocol message type (envelopes
        #: unwrapped one level) — the Figure 11 bandwidth breakdown.
        self.wire_bytes_by_type: dict[str, int] = {}
        #: Every offered frame per protocol message type, counted at the
        #: same site as ``bytes_offered`` — i.e. *before* the down/partition/
        #: filter/loss drop decisions, so drop-filtered traffic (which
        #: ``bytes_offered`` includes but ``wire_bytes_by_type`` never sees)
        #: still shows up in a per-type breakdown.
        self.offered_bytes_by_type: dict[str, int] = {}
        #: Hooks ``fn(now, src, dst, kind, size, payload)`` fired for every
        #: offered frame (*dst* an ``Address``, or the sorted tuple of a
        #: group frame), at the same site as the ``bytes_offered``
        #: accounting. Observation only — the flight recorder in
        #: ``repro.obs`` and the wire spy in ``repro.analysis.wiretrace``
        #: register here; empty by default, costing one truthiness check
        #: per send.
        self.on_frame: list = []

    # -- node lifecycle ------------------------------------------------------

    def register_node(self, name: str) -> None:
        """Make *name* known to the fabric (initially up)."""
        if name in self._nodes_up:
            raise NetworkError(f"node {name!r} already registered")
        self._nodes_up[name] = True

    def node_is_up(self, name: str) -> bool:
        if name not in self._nodes_up:
            raise NetworkError(f"unknown node {name!r}")
        return self._nodes_up[name] and name not in self._paused

    def set_node_up(self, name: str, up: bool) -> None:
        if name not in self._nodes_up:
            raise NetworkError(f"unknown node {name!r}")
        self._nodes_up[name] = up
        # A crash or repair supersedes any network blackout in progress.
        self._paused.discard(name)
        if not up:
            # A crashed node's endpoints vanish with it.
            for address in [a for a in self._endpoints if a.node == name]:
                self._endpoints[address].close()

    def pause_node(self, name: str) -> None:
        """Black out *name*'s network: unreachable, but processes/endpoints
        survive (a wedged NIC, not a crash). Reversed by :meth:`resume_node`."""
        if name not in self._nodes_up:
            raise NetworkError(f"unknown node {name!r}")
        self._paused.add(name)

    def resume_node(self, name: str) -> None:
        self._paused.discard(name)

    def set_node_slowdown(self, name: str, extra_latency: float) -> None:
        """Add *extra_latency* seconds one-way to every message touching
        *name* (0 clears the episode)."""
        if name not in self._nodes_up:
            raise NetworkError(f"unknown node {name!r}")
        if extra_latency < 0:
            raise NetworkError("slowdown must be non-negative")
        if extra_latency > 0:
            self._slowdown[name] = extra_latency
        else:
            self._slowdown.pop(name, None)

    def add_drop_filter(self, predicate: Callable[[Address, Address, Any], bool]) -> int:
        """Force-drop every datagram for which ``predicate(src, dst,
        payload)`` is true; returns a token for :meth:`remove_drop_filter`."""
        self._drop_filter_ids += 1
        self._drop_filters[self._drop_filter_ids] = predicate
        return self._drop_filter_ids

    def remove_drop_filter(self, token: int) -> None:
        self._drop_filters.pop(token, None)

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes_up)

    # -- endpoints -------------------------------------------------------------

    def bind(self, node: str, port: int) -> Endpoint:
        """Bind and return an endpoint at ``(node, port)``."""
        if node not in self._nodes_up:
            raise NetworkError(f"unknown node {node!r}")
        if not self._nodes_up[node]:
            raise NodeDown(f"cannot bind on crashed node {node!r}")
        address = Address(node, port)
        if address in self._endpoints:
            raise AddressInUse(f"{address} already bound")
        endpoint = Endpoint(self, address)
        self._endpoints[address] = endpoint
        return endpoint

    def _unbind(self, endpoint: Endpoint) -> None:
        self._endpoints.pop(endpoint.address, None)

    # -- datagram delivery --------------------------------------------------------

    def send(
        self, src: Address, dst: Address | Sequence[Address], payload: Any
    ) -> None:
        """Send one datagram from *src* to *dst*; drops are silent.

        *dst* is one :class:`Address` or a group of them (any sequence;
        :func:`~repro.net.address.canonical_group` sorts it). Either way
        this is *one* transmission; the module docstring says what is
        counted once per frame and what per receiver.

        The payload is encoded to wire bytes *here*: the exact frame length
        drives the link/contention models, and delivery decodes a fresh
        object — the sender's object reference never leaves its node.
        """
        nodes_up = self._nodes_up
        paused = self._paused
        node = src.node
        if not nodes_up.get(node) or node in paused:
            if node not in nodes_up:
                raise NetworkError(f"unknown node {node!r}")
            if nodes_up[node]:
                # Blacked-out NIC: the sending process is alive but its
                # packets never reach the wire; swallow rather than raise.
                self.stats["dropped_paused"] += 1
                return
            raise NodeDown(f"send from crashed node {node!r}")
        if isinstance(dst, Address):
            targets = (dst,)
        else:
            targets = dst = canonical_group(dst)
            if not targets:
                return
        # Every receiver must be known before the frame is offered: a bad
        # address sends nothing to anyone and counts nothing.
        for target in targets:
            if target.node not in nodes_up:
                raise NetworkError(f"unknown node {target.node!r}")
        stats = self.stats
        stats["sent"] += 1
        frame = WIRE.encode(payload)
        size = len(frame) + DATAGRAM_OVERHEAD
        stats["bytes_offered"] += size
        offered_kind = _payload_kind(payload)
        self.offered_bytes_by_type[offered_kind] = (
            self.offered_bytes_by_type.get(offered_kind, 0) + size
        )
        kernel = self.kernel
        now = kernel.now
        if self.on_frame:
            for hook in self.on_frame:
                hook(now, src, dst, offered_kind, size, payload)

        draw = self._draw
        reachable = self.partitions.reachable
        slowdown = self._slowdown
        #: How long this frame queued for the wire; ``None`` until its first
        #: off-node receiver survives the drop decisions and it occupies it.
        wire_wait: float | None = None
        for target in targets:
            peer = target.node
            if not nodes_up[peer] or peer in paused:
                self._count_dead(peer)
                continue
            if not reachable(node, peer):
                stats["dropped_unreachable"] += 1
                continue
            if self._drop_filters and any(
                predicate(src, target, payload)
                for _token, predicate in sorted(self._drop_filters.items())
            ):
                stats["dropped_filtered"] += 1
                continue
            local = node == peer
            model = LOOPBACK if local else self.lan
            if model.dropped(draw):
                stats["dropped_loss"] += 1
                continue

            if local:
                delay = model.delay(size, draw)
            else:
                if wire_wait is None:
                    # The frame occupies the wire: once, however many
                    # receivers hear it, and this one site feeds both the
                    # ledger and the contention model.
                    stats["bytes_wire"] += size
                    self.wire_bytes_by_type[offered_kind] = (
                        self.wire_bytes_by_type.get(offered_kind, 0) + size
                    )
                    wire_wait = 0.0
                    if self.shared_medium:
                        # Hub: wait for the wire, occupy it for the
                        # serialisation time, then propagate. Contention
                        # shows up as queueing delay.
                        start = max(now, self._wire_free_at)
                        self._wire_free_at = start + size / model.bandwidth
                        wire_wait = start - now
                # Propagation (and its jitter draw) is the receiver's own.
                delay = wire_wait + model.delay(size, draw)
            if slowdown:
                # Slow-node episodes: an overloaded host adds stack latency
                # to every message it sends or receives.
                delay += slowdown.get(node, 0.0) + slowdown.get(peer, 0.0)

            # The det_key tags the in-flight datagram for the determinism
            # sanitizer: same-instant deliveries are distinguishable ties,
            # not ambiguous ones — by (src, dst), and among same-pair
            # datagrams by the per-pair send sequence (per-pair send order
            # is part of the determinism contract). Only the sanitizer reads
            # it, and a kernel has one from construction or never.
            det_key = None
            if kernel.sanitizer is not None:
                seq = self._pair_seq.get((src, target), 0) + 1
                self._pair_seq[(src, target)] = seq
                det_key = (str(src), str(target), seq)
            timer = kernel.timeout(delay, det_key=det_key)
            timer.callbacks.append(
                partial(self._deliver, src, target, payload, frame, size, now)
            )

    def _count_dead(self, node: str) -> None:
        """Count a frame lost to *node* being blacked out or crashed."""
        paused = self._nodes_up.get(node) and node in self._paused
        self.stats["dropped_paused" if paused else "dropped_down"] += 1

    def _deliver(self, src: Address, dst: Address, payload: Any, frame: bytes,
                 size: int, sent_at: float, _event) -> None:
        """Hand one receiver's copy of a frame to its endpoint: the timer
        callback ``send`` schedules, bound with ``functools.partial``."""
        # Re-check at delivery time: the destination may have crashed or
        # become unreachable while the message was in flight.
        node = dst.node
        if not self._nodes_up[node] or node in self._paused:
            self._count_dead(node)
            return
        endpoint = self._endpoints.get(dst)
        if endpoint is None or endpoint.closed:
            self.stats["dropped_unbound"] += 1
            return
        # Decode a *fresh* object graph from the frame bytes — the
        # receiver never sees the sender's objects (nor another
        # receiver's).
        fresh = WIRE.decode(frame)
        kernel = self.kernel
        if kernel.sanitizer is not None:
            kernel.sanitizer.check_payload_isolation(
                kernel.now, src, dst, payload, fresh
            )
        stats = self.stats
        stats["delivered"] += 1
        stats["bytes_delivered"] += size
        endpoint._deliver(Delivery(src, dst, fresh, sent_at, kernel.now, size))
