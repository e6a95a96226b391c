"""Server-side RPC dispatch: typed handler registry + request-id dedup.

:class:`RpcDispatcher` is the server half of every daemon's ``run`` loop:
recognise :class:`~repro.rpc.wire.Request` frames, spawn one handler process
per request, charge a per-request-type service delay, convert domain
exceptions to wire error responses, and (optionally) replay cached responses
so client retries are idempotent.

Handlers are registered per request *type*:

* a handler may return a response (the dispatcher replies), or ``None``
  (deferred reply — the handler parks the ``(src, request_id)`` pair and
  answers later through :meth:`RpcDispatcher.reply`);
* a handler may be a plain function or a generator (it then runs inside
  the spawned handler process and may yield simulation events);
* ``delay`` is a float or a ``callable(payload) -> float`` charged
  *before* the handler runs (the calibrated service time);
* every dispatcher fires the *per-simulation* ``on_dispatch`` /
  ``on_dispatch_done`` hooks on :class:`~repro.rpc.state.RpcState` — the
  server-side half of the :mod:`repro.obs` tracing surface. Hooks are
  isolated: a raising hook is logged, never propagated into the dispatch
  path.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable

from repro.net.address import Address
from repro.rpc.state import rpc_state, run_hooks
from repro.rpc.wire import Reply, Request

__all__ = ["RpcDispatcher", "ResponseCache"]

_MISSING = object()

#: Dedup cache bounds: trim the oldest half once the size crosses the limit.
CACHE_LIMIT = 4096
CACHE_EVICT = 2048


class ResponseCache:
    """Request-id → response dedup cache (client retries get a replay)."""

    def __init__(self) -> None:
        self._entries: dict[int, object] = {}

    def get(self, request_id: int):
        return self._entries.get(request_id, _MISSING)

    def put(self, request_id: int, response) -> None:
        self._entries[request_id] = response
        if len(self._entries) > CACHE_LIMIT:
            for key in list(self._entries)[:CACHE_EVICT]:
                del self._entries[key]

    def __len__(self) -> int:
        return len(self._entries)


class RpcDispatcher:
    """Typed request dispatch for one daemon endpoint.

    Parameters
    ----------
    daemon:
        The owning :class:`~repro.cluster.daemon.Daemon` (provides
        ``endpoint``, ``kernel``, ``spawn``, ``tag``, ``running``).
    cache:
        Optional :class:`ResponseCache`; when present, a request id seen
        before is answered with the cached response and the handler is
        *not* re-run.
    on_error:
        Optional ``callable(exc) -> response | None`` mapping handler
        exceptions to wire responses; ``None`` (or absent) re-raises.
    fallback:
        Optional ``callable(src, request_id, payload) -> response | None``
        for unregistered request types (no delay charged).
    """

    def __init__(
        self,
        daemon,
        *,
        cache: ResponseCache | None = None,
        on_error: Callable[[BaseException], Any] | None = None,
        fallback: Callable[[Address, int, Any], Any] | None = None,
    ):
        self.daemon = daemon
        self.cache = cache
        self.on_error = on_error
        self.fallback = fallback
        #: request type -> (handler, service delay or callable(payload)).
        self._handlers: dict[type, tuple[Callable, Any]] = {}
        self._state = rpc_state(daemon.node.network)

    def register(
        self,
        req_type: type | tuple[type, ...],
        fn: Callable,
        *,
        delay: float | Callable[[Any], float] = 0.0,
    ) -> None:
        """Route requests of *req_type* (a type or tuple of types) to *fn*."""
        for cls in req_type if isinstance(req_type, tuple) else (req_type,):
            self._handlers[cls] = (fn, delay)

    def handle_frame(self, src: Address, frame: Any) -> None:
        """Dispatch *frame* if it is an RPC request. Anything else (the
        daemon's run loop has already taken its own notification records)
        is logged and dropped: malformed input must not kill the daemon."""
        daemon = self.daemon
        if isinstance(frame, Request):
            daemon.spawn(
                self._handle(src, frame.request_id, frame.payload),
                name=f"{daemon.tag}-rpc{frame.request_id}",
            )
        else:
            daemon.log.warning(
                daemon.tag, f"dropped unknown frame {type(frame).__name__} from {src}"
            )

    def reply(self, dst: Address, request_id: int, response) -> None:
        """Send (and, when a cache is configured, record) a response."""
        if self.cache is not None:
            self.cache.put(request_id, response)
        daemon = self.daemon
        if daemon.running and not daemon.endpoint.closed:
            daemon.endpoint.send(dst, Reply(request_id, response))

    def _handle(self, src: Address, request_id: int, payload):
        daemon = self.daemon
        if self.cache is not None:
            cached = self.cache.get(request_id)
            if cached is not _MISSING:
                daemon.endpoint.send(src, Reply(request_id, cached))
                return
        run_hooks(self._state.on_dispatch, daemon, src, request_id, payload,
                  log=daemon.log, where=daemon.tag)
        entry = self._handlers.get(type(payload))
        try:
            if entry is None:
                response = (
                    self.fallback(src, request_id, payload)
                    if self.fallback is not None else None
                )
            else:
                fn, delay = entry
                if callable(delay):
                    delay = delay(payload)
                if delay:
                    yield daemon.kernel.timeout(delay)
                result = fn(src, request_id, payload)
                if inspect.isgenerator(result):
                    result = yield from result
                response = result
        except BaseException as exc:
            response = self.on_error(exc) if self.on_error is not None else None
            if response is None:
                raise
        if response is not None:
            self.reply(src, request_id, response)
        run_hooks(self._state.on_dispatch_done, daemon, src, request_id,
                  payload, response, log=daemon.log, where=daemon.tag)
