"""Network addresses and delivered-message records."""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

from repro.net.codec import register_wire_types

__all__ = ["Address", "Delivery", "canonical_group", "dst_text"]


class Address(NamedTuple):
    """A network endpoint: a named node plus a port number.

    Comparable and hashable, so addresses can key routing tables and be
    totally ordered (used by the GCS to pick coordinators/sequencers
    deterministically).
    """

    node: str
    port: int

    def __str__(self) -> str:
        return f"{self.node}:{self.port}"


def canonical_group(group: Sequence[Address]) -> tuple[Address, ...]:
    """A destination *group* — any sequence of addresses — in delivery
    order: sorted and deduplicated. A ``set`` is refused the way the codec
    refuses one: a caller that holds one must sort it, so hash order never
    reaches a spy, a hook or the wire."""
    if isinstance(group, (set, frozenset)):
        raise TypeError(
            "a destination group must be a sequence, not a set: iteration "
            "order is hash-dependent; pass a sorted tuple instead"
        )
    return tuple(sorted(set(group)))


def dst_text(dst: Address | Sequence[Address]) -> str:
    """``node:port`` for one address, comma-joined (no spaces) for a group —
    the one spelling trace lines and recorder entries use."""
    if isinstance(dst, Address):
        return str(dst)
    return ",".join(map(str, canonical_group(dst)))


class Delivery(NamedTuple):
    """A message as handed to the receiving endpoint's mailbox (one is
    built per delivered frame, so a tuple rather than a dataclass)."""

    __wire_local__ = (
        "local mailbox record handed to the receiving endpoint; built "
        "after decode, never itself encoded"
    )

    src: Address
    dst: Address
    payload: Any
    #: Simulated send timestamp (seconds).
    sent_at: float
    #: Simulated delivery timestamp (seconds).
    delivered_at: float
    #: Exact encoded wire size in bytes, datagram header included (this is
    #: the size the bandwidth/contention model charged for).
    size: int = 0


# Addresses ride inside many wire records (membership lists, job routing).
register_wire_types(Address)
