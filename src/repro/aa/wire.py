"""Wire records of the replication engine (:mod:`repro.aa.engine`).

Two groups: the generic client protocol (:class:`ReplRequest` /
:class:`ReplResult`, spoken by :class:`~repro.aa.replicated.ReplicatedService`
and :class:`~repro.aa.client.ReplicatedClient`), and the records the engine
itself puts on the wire whatever service it replicates — the ordered
:class:`Command` and :class:`XferMarker`, the state-transfer push/pull
frames, and the commit-position stamp. JOSHUA's protocol is these plus its
own client and launch-mutex records (:mod:`repro.joshua.wire` re-exports
them, so a JOSHUA frame is still looked up in one place).

The codec tags frames by class name, so the records kept their names and
field lists when they moved here from ``joshua/wire.py``: frames are
byte-identical (``tests/data/wire_baseline.json`` pins that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.net.address import Address
from repro.net.codec import register_wire_types

__all__ = [
    "ReplRequest", "ReplResult", "SeqStampedResp",
    "StateXferReq", "StateXferResp", "XferPush",
    "Command", "XferMarker",
]


# -- generic client <-> replica -------------------------------------------------


@dataclass(frozen=True)
class ReplRequest:
    """Client -> replica: one request with its exactly-once identity."""

    uuid: str
    payload: Any


@dataclass(frozen=True)
class ReplResult:
    uuid: str
    value: Any
    error: str | None = None


@dataclass(frozen=True)
class SeqStampedResp:
    """A write reply carrying its commit position: the wrapped result plus
    the (shard, applied_seq) the command executed at on the answering
    replica (the cut of its capture, if it knows the command only from
    one). Only sent when the writer asked for it (``track_seq``)."""

    result: Any
    shard: int
    seq: int


# -- state transfer ---------------------------------------------------------------


@dataclass(frozen=True)
class StateXferReq:
    """Joiner -> sponsor: send me the state as of my marker."""

    marker_uuid: str
    joiner: Address
    #: Which ordering shard's engine this transfer belongs to (one daemon
    #: endpoint serves every shard hosted on the node; 0 is the only shard
    #: in an unsharded deployment).
    shard: int = 0


@dataclass(frozen=True)
class StateXferResp:
    """One replica's state as of a marker cut.

    ``items``/``next_seq``/``mutex``/``skipped`` belong to the driver
    (JOSHUA's meaning is given below; a generic service ships its snapshot
    as the single item); ``results`` and ``applied_seq`` are the engine's
    own state.
    """

    marker_uuid: str
    #: JOSHUA: tuple of ("submit", spec, job_id) commands to replay.
    items: tuple
    #: JOSHUA: the shard's stripe count, its ordered job-id counter.
    next_seq: int
    #: job_id -> (winner head, started) launch-mutex entries.
    mutex: tuple
    #: Job ids the sponsor could not transfer (held jobs — the paper's
    #: documented limitation of command replay).
    skipped: tuple = ()
    #: (uuid, cached response) pairs: the sponsor's command dedup cache, so
    #: a client retrying an already-executed command against the joiner is
    #: answered from cache instead of re-executing (and possibly
    #: re-launching) it.
    results: tuple = ()
    #: The sponsor's applied-command counter at the marker cut; the joiner
    #: re-anchors on it. Every capture an engine serves carries one (>= 0);
    #: the default marks a capture the engine has not stamped yet.
    applied_seq: int = -1


@dataclass(frozen=True)
class XferPush:
    """Sponsor -> joiner: unsolicited state-transfer capture push.

    Fire-and-forget (not request/response — the joiner asked via the
    ordered :class:`XferMarker`, not an RPC); sent to the joiner's
    client-facing endpoint when the sponsor's serial loop reaches the
    marker cut. *shard* routes the push to the owning engine.
    """

    response: StateXferResp
    shard: int = 0


# -- group multicast payloads --------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """A totally ordered client command, executed at every replica."""

    uuid: str
    kind: str  # JOSHUA: "jsub" | "jdel" | "jstat"
    payload: Any


@dataclass(frozen=True)
class XferMarker:
    """Joiner's cut point in the command stream for state transfer."""

    marker_uuid: str
    joiner: Address


register_wire_types(
    ReplRequest, ReplResult, SeqStampedResp,
    StateXferReq, StateXferResp, XferPush,
    Command, XferMarker,
)
