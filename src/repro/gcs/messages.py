"""Wire messages and delivery records of the group communication protocol.

All protocol traffic is dataclasses tagged by type; the transport carries
them opaquely. ``MessageId`` is the globally unique identity of one
application multicast: ``(sender address, sender-local counter)``. The
counter's high bits are the sender's *incarnation* (0 on first start,
strictly larger each time a process is re-instantiated at the address), so a
restarted member can never re-issue an id of its past life.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.net.address import Address
from repro.net.codec import register_wire_types

__all__ = [
    "MessageId",
    "INCARNATION_SHIFT",
    "AGREED",
    "SAFE",
    "DataMsg",
    "DataBatchMsg",
    "OrderMsg",
    "StableMsg",
    "Heartbeat",
    "Probe",
    "JoinReq",
    "LeaveReq",
    "FlushReq",
    "FlushOk",
    "NewView",
    "TokenMsg",
    "DeliveredMessage",
]

#: Delivery services (paper §3: totally ordered vs. safe/stable delivery).
AGREED = "agreed"
SAFE = "safe"


#: ``MessageId.counter = (incarnation << INCARNATION_SHIFT) | n`` for the
#: sender's *n*-th multicast of that incarnation. Incarnation 0 leaves the
#: counter — and every frame of a never-restarted member — as it always was.
INCARNATION_SHIFT = 32


class MessageId(NamedTuple):
    """Globally unique multicast identity: (sender, per-sender counter)."""

    sender: Address
    counter: int

    def __str__(self) -> str:
        return f"{self.sender}#{self.counter}"


@dataclass(frozen=True)
class DataMsg:
    """An application multicast's payload, fanned out to every member."""

    msg_id: MessageId
    view_id: int
    service: str  # AGREED or SAFE
    payload: Any


@dataclass(frozen=True)
class DataBatchMsg:
    """Several application multicasts coalesced into one wire frame.

    Produced by :class:`~repro.gcs.batching.DataBatcher` when a head submits
    a burst of commands: instead of one :class:`DataMsg` frame (and its
    fixed +28B datagram overhead) per command, the burst rides as one frame
    whose ``entries`` carry ``(msg_id, service, payload)`` in submit order.
    Receivers unpack the batch into individual DATA records before the
    ordering/delivery machinery sees them, so total order, stability and
    per-command traces are byte-for-byte what an unbatched run produces —
    only the wire framing differs.
    """

    view_id: int
    #: ``(msg_id, service, payload)`` per coalesced multicast, submit order.
    entries: tuple[tuple[MessageId, str, Any], ...]


@dataclass(frozen=True)
class OrderMsg:
    """Sequencer/token assignment of global sequence numbers to messages.

    ``assignments`` maps global sequence number -> message id; a single
    OrderMsg may batch several assignments.
    """

    view_id: int
    assignments: tuple[tuple[int, MessageId], ...]


@dataclass(frozen=True)
class StableMsg:
    """Member acknowledgement used for SAFE delivery (sent unreliably, one
    group frame to the view; the beacon repeats the last one).

    ``acked_through`` is cumulative: the sender has agreed-ready copies of
    every sequence number <= acked_through in this view.
    """

    view_id: int
    acked_through: int


@dataclass(frozen=True)
class Heartbeat:
    """Liveness beacon (sent unreliably), carrying what the sender's last
    *sent* :class:`StableMsg` carried (``acked_through`` -1: none in this
    view) — the repair channel for a lost stability ack."""

    view_id: int
    acked_through: int


@dataclass(frozen=True)
class Probe:
    """Anti-entropy beacon to addresses outside the current view.

    After a partition heals, the two sides hold disjoint views (possibly
    with the same numeric view id) and exchange no group traffic, so neither
    would ever notice the other. Members therefore periodically probe every
    address they have ever shared a view with; a member receiving a probe
    from a *foreign* group compares view identities and the losing side
    (fewer members; tie broken toward the larger coordinator address)
    dissolves member-by-member and rejoins the winner.
    """

    view_id: int
    size: int
    coordinator: Address


@dataclass(frozen=True)
class JoinReq:
    """A new process asks a current member to bring it into the group.

    *schema* is the joiner's :meth:`~repro.net.codec.Codec.schema_digest`:
    a group runs one wire schema, and a member refuses a joiner on another
    (PROTOCOLS.md §11)."""

    joiner: Address
    schema: str


@dataclass(frozen=True)
class LeaveReq:
    """A member announces voluntary departure (handled as a failure, like
    JOSHUA's shutdown-by-signal leave semantics)."""

    leaver: Address


@dataclass(frozen=True)
class FlushReq:
    """Coordinator starts a membership change.

    ``epoch`` totally orders competing flush attempts:
    ``(new_view_id, attempt, coordinator)`` compared lexicographically.
    """

    epoch: tuple


@dataclass(frozen=True)
class FlushOk:
    """A member's flush contribution: everything it knows about the current
    view's traffic, so the coordinator can compute the union."""

    epoch: tuple
    sender: Address
    #: message id -> (service, payload) for every DATA this member holds.
    known: tuple[tuple[MessageId, tuple], ...]
    #: global seq -> message id orderings this member has seen.
    orderings: tuple[tuple[int, MessageId], ...]
    #: what this member has already delivered (any view), as a
    #: :meth:`~repro.gcs.delivery.DeliveredTracker.report`: per sender, the
    #: runs of consecutive counters ``(lo0, hi0, lo1, hi1, ...)``.
    delivered_runs: tuple[tuple[Address, tuple[int, ...]], ...]
    #: view id this member has installed (-1 for joiners with no view); the
    #: coordinator merges orderings only from the most advanced responders
    #: and asks "already delivered?" only of responders that held a view at
    #: all.
    view_id: int = -1


@dataclass(frozen=True)
class NewView:
    """Coordinator's final decision ending a membership change."""

    epoch: tuple
    view_id: int
    members: tuple[Address, ...]
    #: The agreed closing sequence of the old view: messages every survivor
    #: must deliver (in list order) before installing the new view. Each
    #: entry carries full payload so members missing the DATA can recover.
    closing: tuple[tuple[MessageId, str, Any], ...]


@dataclass(frozen=True)
class TokenMsg:
    """Rotating-token ordering engine: the token itself.

    ``next_seq`` is the next unassigned global sequence number.
    """

    view_id: int
    next_seq: int


@dataclass(frozen=True)
class DeliveredMessage:
    """What the application's ``on_deliver`` callback receives."""

    __wire_local__ = "local delivery record handed to services, never on the wire"

    msg_id: MessageId
    sender: Address
    payload: Any
    service: str
    view_id: int
    #: Global sequence number within the view; a view-change closing list
    #: is injected as the view's first seqs (``DeliveryQueue.start_view``).
    seq: int = -1


register_wire_types(
    MessageId, DataMsg, DataBatchMsg, OrderMsg, StableMsg, Heartbeat, Probe,
    JoinReq, LeaveReq, FlushReq, FlushOk, NewView, TokenMsg,
)
