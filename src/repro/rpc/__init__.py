"""``repro.rpc`` — the shared typed RPC/dispatch substrate.

Every request/response conversation in the reproduction (PBS user commands,
scheduler polls, server→mom dispatch, JOSHUA client/mom traffic, the generic
active/active client) rides on this one layer instead of re-implementing
framing, retries and dedup per stack:

* :func:`~repro.rpc.client.call` — the client coroutine: ephemeral-port
  bind, :class:`~repro.rpc.wire.Request` / :class:`~repro.rpc.wire.Reply`
  framing, a per-attempt timeout and immediate retries under the same
  request id;
* :func:`~repro.rpc.client.failover_call` — the same, iterated over a
  replica list with pluggable skip/reject rules (exactly-once clients);
* :class:`~repro.rpc.server.RpcDispatcher` — server side: a typed
  handler registry with per-request-type service delays, an optional
  request-id dedup :class:`~repro.rpc.server.ResponseCache`;
* :func:`~repro.rpc.state.rpc_state` — per-simulation allocators (request
  ids, ephemeral ports, uuid/marker families), the per-simulation hook
  lists (``on_request`` / ``on_response`` / ``on_dispatch`` /
  ``on_dispatch_done``) tracing and metrics attach to, and the bounded
  :class:`~repro.rpc.state.TimeoutRecord` log chaos reports surface.

Layering: ``util → sim → net → rpc → obs → gcs → pbs → joshua`` — this
package sits directly on :mod:`repro.net` and knows nothing about the
protocol stacks above it; :mod:`repro.obs` registers into the hook lists
on :class:`~repro.rpc.state.RpcState` from one layer up.
"""

from repro.rpc.client import call, failover_call
from repro.rpc.errors import RpcTimeout
from repro.rpc.server import ResponseCache, RpcDispatcher
from repro.rpc.state import RpcState, TimeoutRecord, rpc_state

__all__ = [
    "call",
    "failover_call",
    "RpcTimeout",
    "RpcDispatcher",
    "ResponseCache",
    "RpcState",
    "TimeoutRecord",
    "rpc_state",
]
