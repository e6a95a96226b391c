"""Per-simulation RPC state: id allocators, timeout log, dispatch hooks.

Request ids, ephemeral ports and the uuid/marker counters of the stacks
above live on an :class:`RpcState` hung off the
:class:`~repro.net.network.Network` — one per simulation, never module
state — so back-to-back runs in one interpreter are bit-identical (ids are
part of the datagram, and the shared medium is charged by exact frame size).

The state object also owns the observability surface of the substrate:

* a bounded log of :class:`TimeoutRecord` entries (every exhausted RPC),
  surfaced by chaos-run reports;
* ``on_request`` / ``on_response`` client-side hook lists plus
  ``on_dispatch`` / ``on_dispatch_done`` server-side lists — the tracing/
  metrics attachment points :mod:`repro.obs` registers into.

Hooks are observers, never participants: :func:`run_hooks` isolates a
raising hook (logged, not propagated) so a buggy collector cannot break an
RPC conversation.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.net.network import Network

__all__ = ["RpcState", "TimeoutRecord", "rpc_state", "run_hooks"]

#: First request id and first ephemeral client port of a fresh simulation.
FIRST_REQUEST_ID = 1
FIRST_EPHEMERAL_PORT = 30000
#: How many exhausted-call records the timeout log retains.
TIMEOUT_LOG_LIMIT = 256


@dataclass(frozen=True)
class TimeoutRecord:
    """One exhausted RPC conversation (all attempts unanswered)."""

    time: float
    src: str
    dst: Any
    request_type: str
    attempts: int

    def describe(self) -> str:
        return (
            f"t={self.time:.3f} {self.src} -> {self.dst}: "
            f"{self.request_type} unanswered after {self.attempts} attempt(s)"
        )


class RpcState:
    """Allocators + hook points for one simulation (one per Network)."""

    def __init__(self) -> None:
        self._counters: dict[str, itertools.count] = {}
        #: Bounded log of exhausted calls, oldest first.
        self.timeouts: deque[TimeoutRecord] = deque(maxlen=TIMEOUT_LOG_LIMIT)
        #: Called as ``hook(node, server, request_id, payload, attempt)``
        #: just before each request datagram is sent.
        self.on_request: list[Callable] = []
        #: Called as ``hook(node, server, request_id, payload, response)``
        #: when a matching response arrives — or, for an exhausted
        #: conversation, with the :class:`TimeoutRecord` as the response
        #: marker, so hooks see every conversation exactly once.
        self.on_response: list[Callable] = []
        #: Called as ``hook(daemon, src, request_id, payload)`` when any
        #: dispatcher in this simulation starts handling a request
        #: (cache replays excluded — no handler runs).
        self.on_dispatch: list[Callable] = []
        #: Called as ``hook(daemon, src, request_id, payload, response)``
        #: after the handler finished (response is None for deferred
        #: replies answered later via ``RpcDispatcher.reply``).
        self.on_dispatch_done: list[Callable] = []

    def next_id(self, family: str, start: int = 1) -> int:
        """Next value from the named per-simulation counter family.

        Families in use: ``"request"`` (RPC request ids), ``"port"``
        (ephemeral client ports), and uuid/marker families owned by the
        stacks above (e.g. ``"joshua-uuid"``, ``"joshua-marker"``).
        """
        counter = self._counters.get(family)
        if counter is None:
            counter = self._counters[family] = itertools.count(start)
        return next(counter)

    def next_request_id(self) -> int:
        return self.next_id("request", FIRST_REQUEST_ID)

    def next_port(self) -> int:
        return self.next_id("port", FIRST_EPHEMERAL_PORT)


def run_hooks(hooks: list[Callable], *args, log=None, where: str = "rpc") -> None:
    """Invoke observer *hooks*, isolating failures.

    A raising hook is a bug in the observer, not in the conversation it
    watches: the exception is logged (when a :class:`~repro.util.simlog.SimLogger`
    is supplied) and swallowed, never propagated into the RPC path.
    """
    for hook in hooks:
        try:
            hook(*args)
        except Exception as exc:
            if log is not None:
                log.error(where, f"observer hook {hook!r} raised: {exc!r}")


def rpc_state(network: Network) -> RpcState:
    """The per-simulation :class:`RpcState` for *network* (lazily created)."""
    state = getattr(network, "_rpc_state", None)
    if state is None:
        state = RpcState()
        network._rpc_state = state
    return state
