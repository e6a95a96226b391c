"""Client-side RPC coroutines: single call and replica failover.

:func:`call` is the one request/response primitive everything uses: bind an
ephemeral port, send a :class:`~repro.rpc.wire.Request`, await the matching
:class:`~repro.rpc.wire.Reply` until the per-attempt timeout, and retry
immediately under the same request id (servers dedup or handlers are
idempotent). :func:`failover_call` iterates :func:`call` over a replica list
with the skip/retry/reject rules of the exactly-once clients (JOSHUA
commands, the generic active/active client, the jmutex notifiers).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Sequence

from repro.net.address import Address
from repro.net.network import Network
from repro.rpc.errors import RpcTimeout
from repro.rpc.state import TimeoutRecord, rpc_state, run_hooks
from repro.rpc.wire import ErrorResp, Reply, Request
from repro.util.errors import NoActiveHeadError, PBSError

__all__ = ["call", "failover_call"]


def call(
    network: Network,
    node: str,
    server: Address,
    payload: Any,
    *,
    timeout: float = 2.0,
    retries: int = 0,
) -> Generator:
    """Coroutine: one request/response against *server* from *node*.

    Yields simulation events; returns the response payload. Each of the
    ``1 + retries`` attempts waits *timeout* seconds for the reply. Raises
    :class:`RpcTimeout` once every attempt went unanswered and
    :class:`PBSError` (carrying the relay's typed ``kind`` and ``message``)
    if the server answered with an :class:`~repro.rpc.wire.ErrorResp`.
    """
    attempts = 1 + retries
    kernel = network.kernel
    state = rpc_state(network)
    endpoint = network.bind(node, state.next_port())
    try:
        request_id = state.next_request_id()
        # One persistent receive event, re-armed after each delivery, so no
        # stale mailbox getter can swallow a response.
        recv_ev = endpoint.recv()
        for attempt in range(1, attempts + 1):
            run_hooks(state.on_request, node, server, request_id, payload,
                      attempt, log=kernel.log, where="rpc.client")
            endpoint.send(server, Request(request_id, payload))
            deadline = kernel.timeout(timeout)
            while True:
                yield kernel.any_of([recv_ev, deadline])
                if recv_ev.processed:
                    frame = recv_ev.value.payload
                    recv_ev = endpoint.recv()
                    if isinstance(frame, Reply) and frame.request_id == request_id:
                        response = frame.payload
                        run_hooks(state.on_response, node, server, request_id,
                                  payload, response, log=kernel.log,
                                  where="rpc.client")
                        if isinstance(response, ErrorResp):
                            error = PBSError(f"{response.kind}: {response.message}")
                            error.kind, error.message = response.kind, response.message
                            raise error
                        return response
                    continue
                if deadline.processed:
                    break  # retry (same request id: server-side idempotent)
        record = TimeoutRecord(
            time=kernel.now, src=node, dst=server,
            request_type=type(payload).__name__, attempts=attempts,
        )
        state.timeouts.append(record)
        # Exhausted conversations report through the same hook path as
        # answered ones, with the TimeoutRecord as the response marker —
        # collectors therefore see every conversation exactly once.
        run_hooks(state.on_response, node, server, request_id, payload,
                  record, log=kernel.log, where="rpc.client")
        raise RpcTimeout(server, type(payload).__name__, attempts)
    finally:
        endpoint.close()


def failover_call(
    network: Network,
    node: str,
    targets: Sequence[Address] | Iterable[Address],
    payload: Any,
    *,
    timeout: float = 2.0,
    skip_down: bool = True,
    retry_error: Callable[[PBSError], bool] | None = None,
    reject: Callable[[Any], bool] | None = None,
    stats: dict | None = None,
    what: str | None = None,
) -> Generator:
    """Coroutine: try *payload* against each target until one answers.

    The shared failover loop of every exactly-once client:

    * ``skip_down`` — skip targets whose node is down without burning a
      full RPC timeout (models the instant connection-refused a dead
      node's TCP stack produces);
    * :class:`RpcTimeout` always fails over to the next target;
    * other :class:`PBSError`\\ s fail over when ``retry_error(exc)`` is
      true (e.g. a head answering ``kind == "joining"``), otherwise propagate;
    * a received response is retried on the next target when
      ``reject(response)`` is true (e.g. a jmutex notifier's answer whose
      ``decision`` is not ``"ok"``) — otherwise it is returned.

    Every target passed over (skipped, timed out, retried or rejected)
    adds one to ``stats["failovers"]`` when *stats* is given.

    Raises :class:`NoActiveHeadError` (message prefix *what*) when every
    target was skipped, timed out, or rejected.
    """
    last_error: Exception | None = None
    for target in targets:
        if not skip_down or network.node_is_up(target.node):
            try:
                response = yield from call(
                    network, node, target, payload, timeout=timeout
                )
            except RpcTimeout as exc:
                last_error = exc
            except PBSError as exc:
                if retry_error is None or not retry_error(exc):
                    raise
                last_error = exc
            else:
                if reject is None or not reject(response):
                    return response
        if stats is not None:
            stats["failovers"] = stats.get("failovers", 0) + 1
    if what is None:
        what = f"no target answered {type(payload).__name__}"
    raise NoActiveHeadError(f"{what}: {last_error}")
