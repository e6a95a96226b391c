"""The RPC wire envelope: typed request/reply frames.

Every conversation on the rpc substrate crosses the network as one of two
record shapes:

``Request``
    ``request_id`` is unique per simulation (allocated from
    :meth:`~repro.rpc.state.RpcState.next_id`), ``payload`` is the typed
    request dataclass the server's dispatcher routes on.
``Reply``
    Echoes the ``request_id`` so the client can match responses to calls;
    ``payload`` is the response dataclass (possibly an error-relay response
    re-raised client-side).

Declared here — not inline in client/server — so the rpc layer's wire
surface is one importable module the codec registry and lint rules R4/R6
can audit like any other protocol layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.net.codec import register_wire_types

__all__ = ["Request", "Reply"]


@dataclass(frozen=True)
class Request:
    """One client→server call frame."""

    request_id: int
    payload: Any


@dataclass(frozen=True)
class Reply:
    """One server→client response frame, matched by ``request_id``."""

    request_id: int
    payload: Any


register_wire_types(Request, Reply)
