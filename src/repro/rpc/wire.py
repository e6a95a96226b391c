"""The RPC wire envelope: typed request/reply frames.

Every conversation on the rpc substrate crosses the network as one of two
record shapes:

``Request``
    ``request_id`` is unique per simulation (allocated from
    :meth:`~repro.rpc.state.RpcState.next_id`), ``payload`` is the typed
    request dataclass the server's dispatcher routes on.
``Reply``
    Echoes the ``request_id`` so the client can match responses to calls;
    ``payload`` is the response dataclass — possibly an :class:`ErrorResp`,
    the one error relay every layer above speaks, which
    :func:`~repro.rpc.client.call` re-raises client-side.

Declared here — not inline in client/server — so the rpc layer's wire
surface is one importable module the codec registry and lint rule R4 can
audit like any other protocol layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.net.codec import register_wire_types

__all__ = ["Request", "Reply", "ErrorResp", "bad_request", "relay_error"]


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


@dataclass(frozen=True)
class ErrorResp:
    """Server-side error relayed to the client (re-raised as PBSError)."""

    kind: str
    message: str


def bad_request(src, request_id, payload) -> ErrorResp:
    """Dispatcher fallback: the answer to a request no handler is registered for."""
    return ErrorResp("bad-request", f"unknown request {type(payload).__name__}")


def relay_error(exc) -> ErrorResp:
    """Pass an error :func:`~repro.rpc.client.call` raised on to one's own
    client: a relayed error keeps its kind and message, an unanswered
    conversation (an ``RpcTimeout`` has no kind) becomes ``pbs-error``."""
    if exc.kind is None:
        return ErrorResp("pbs-error", str(exc))
    return ErrorResp(exc.kind, exc.message)


register_wire_types(Request, Reply, ErrorResp)
