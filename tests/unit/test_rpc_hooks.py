"""Hook contracts of the RPC substrate: the obs layer's attachment points.

The tracing surface (:mod:`repro.obs`) is only sound if the hooks it
registers into :class:`~repro.rpc.state.RpcState` obey a strict contract:

* client side — ``on_request`` fires once per *attempt* (same request id
  across retries), ``on_response`` fires exactly once per conversation:
  with the response payload on success, or with the
  :class:`~repro.rpc.state.TimeoutRecord` marker when every attempt went
  unanswered;
* server side — every dispatcher fires the per-simulation ``on_dispatch``
  before the handler and ``on_dispatch_done`` after the reply, but *not*
  for cache replays (no handler runs);
* isolation — a raising hook is an observer bug, never an RPC failure:
  it is logged and swallowed, the conversation completes untouched.

These tests pin that contract with a minimal echo daemon on a two-node
fabric, independent of any protocol stack above rpc.
"""

import gc
import weakref
from dataclasses import dataclass
from functools import cache

import pytest

import repro.net.network as network_module
from repro.cluster.daemon import Daemon
from repro.cluster.node import Node
from repro.net import Network
from repro.net.codec import WIRE, Codec
from repro.rpc import ResponseCache, RpcDispatcher, RpcTimeout, call, rpc_state
from repro.rpc.state import TimeoutRecord, run_hooks
from repro.rpc.wire import Request
from repro.sim import Kernel


@dataclass(frozen=True)
class Ping:
    value: int


@dataclass(frozen=True)
class Pong:
    value: int


@cache
def _wire_with_echo() -> Codec:
    """The package's registry plus ``Ping``/``Pong``. The shared ``WIRE``
    stays the package's own: its schema digest is what a joining head
    presents (PROTOCOLS.md §11.3), so a test that registered on it would
    move the bytes of every later join in the interpreter."""
    codec = Codec()
    for cls in (*WIRE._records_by_type, Ping, Pong):
        codec.register(cls)
    return codec


@pytest.fixture(autouse=True)
def _echo_on_the_wire(monkeypatch):
    # Test payloads cross the simulated wire, so they need codec entries
    # like any protocol's wire types.
    monkeypatch.setattr(network_module, "WIRE", _wire_with_echo())


class EchoDaemon(Daemon):
    """Minimal dispatcher-backed daemon: answers Ping(v) with Pong(v)."""

    def __init__(self, node, *, cache=None):
        super().__init__(node, "echo", 9100)
        self.rpc = RpcDispatcher(self, cache=cache)
        self.rpc.register(Ping, self._echo)

    def _echo(self, src, request_id, payload):
        return Pong(payload.value)

    def run(self):
        while True:
            delivery = yield self.endpoint.recv()
            self.rpc.handle_frame(delivery.src, delivery.payload)


class DeafDaemon(Daemon):
    """Binds the port but never answers — every call times out."""

    def __init__(self, node):
        super().__init__(node, "deaf", 9100)


def make_world(daemon_cls=EchoDaemon, **daemon_kwargs):
    kernel = Kernel(seed=7)
    network = Network(kernel)
    server_node = Node(network, "srv")
    Node(network, "cli")
    daemon = daemon_cls(server_node, **daemon_kwargs)
    daemon.start()
    return kernel, network, daemon


def run_call(kernel, network, daemon, payload, **kw):
    """Drive one client conversation; returns the response or the raised
    RpcTimeout (so tests can assert on the exhausted path too)."""

    def conversation():
        try:
            response = yield from call(
                network, "cli", daemon.address, payload, **kw
            )
        except RpcTimeout as exc:
            return exc
        return response

    process = kernel.spawn(conversation(), name="test-call")
    return kernel.run(until=process)


class TestClientHooks:
    def test_request_then_response_order_and_arguments(self):
        kernel, network, daemon = make_world()
        state = rpc_state(network)
        seen = []
        state.on_request.append(
            lambda *args: seen.append(("request",) + args)
        )
        state.on_response.append(
            lambda *args: seen.append(("response",) + args)
        )

        result = run_call(kernel, network, daemon, Ping(7))

        assert result == Pong(7)
        assert [entry[0] for entry in seen] == ["request", "response"]
        request, response = seen
        # on_request(node, server, request_id, payload, attempt)
        assert request[1:] == ("cli", daemon.address, request[3], Ping(7), 1)
        # on_response(node, server, request_id, payload, response) — same
        # request id as the request that opened the conversation.
        assert response[1:] == ("cli", daemon.address, request[3], Ping(7), Pong(7))

    def test_each_retry_fires_on_request_with_same_id(self):
        kernel, network, daemon = make_world(DeafDaemon)
        state = rpc_state(network)
        requests, responses = [], []
        state.on_request.append(lambda *args: requests.append(args))
        state.on_response.append(lambda *args: responses.append(args))

        result = run_call(
            kernel, network, daemon, Ping(1), timeout=0.05, retries=2
        )

        assert isinstance(result, RpcTimeout)
        assert [attempt for (_, _, _, _, attempt) in requests] == [1, 2, 3]
        assert len({request_id for (_, _, request_id, _, _) in requests}) == 1

    def test_exhausted_conversation_reports_timeout_record(self):
        kernel, network, daemon = make_world(DeafDaemon)
        state = rpc_state(network)
        responses = []
        state.on_response.append(lambda *args: responses.append(args))

        run_call(kernel, network, daemon, Ping(1), timeout=0.05, retries=1)

        # Exactly one on_response per conversation, carrying the marker.
        assert len(responses) == 1
        marker = responses[0][4]
        assert isinstance(marker, TimeoutRecord)
        assert marker.request_type == "Ping"
        assert marker.attempts == 2
        assert marker.dst == daemon.address
        assert marker in state.timeouts

    def test_raising_client_hook_is_logged_not_propagated(self):
        kernel, network, daemon = make_world()
        state = rpc_state(network)

        def bad_hook(*args):
            raise RuntimeError("observer bug")

        state.on_request.append(bad_hook)
        state.on_response.append(bad_hook)

        result = run_call(kernel, network, daemon, Ping(3))

        assert result == Pong(3)  # the conversation is untouched
        errors = [r for r in kernel.log.records
                  if r.level == "ERROR" and r.source == "rpc.client"]
        assert len(errors) == 2
        assert all("observer hook" in r.message for r in errors)


class TestAnsweredCall:
    def test_reply_is_released_while_the_deadline_is_still_queued(self):
        """The attempt's deadline outlives the answer by most of a minute;
        the decided wait must not keep the reply (and the delivery around
        it) alive until the deadline pops."""
        kernel, network, daemon = make_world()
        replies = []

        def conversation():
            response = yield from call(
                network, "cli", daemon.address, Ping(3), timeout=60.0
            )
            replies.append(weakref.ref(response))

        kernel.run(until=kernel.spawn(conversation(), name="test-call"))
        answered_at = kernel.now
        gc.collect()
        assert replies[0]() is None
        # The deadline was still queued: running on pops it a minute later.
        kernel.run()
        assert kernel.now == pytest.approx(answered_at + 60.0, abs=0.01)


class TestDispatchHooks:
    def test_dispatch_hook_order_and_arguments(self):
        kernel, network, daemon = make_world()
        state = rpc_state(network)
        seen = []
        state.on_dispatch.append(
            lambda *args: seen.append(("dispatch",) + args)
        )
        state.on_dispatch_done.append(
            lambda *args: seen.append(("done",) + args)
        )

        run_call(kernel, network, daemon, Ping(5))

        assert [entry[0] for entry in seen] == ["dispatch", "done"]
        dispatch, done = seen
        # on_dispatch(daemon, src, request_id, payload)
        assert dispatch[1] is daemon
        assert dispatch[2].node == "cli"
        assert dispatch[4] == Ping(5)
        # on_dispatch_done(daemon, src, request_id, payload, response)
        assert done[1] is daemon
        assert done[3] == dispatch[3]  # same request id
        assert done[5] == Pong(5)

    def test_cache_replay_skips_dispatch_hooks(self):
        kernel, network, daemon = make_world(cache=ResponseCache())
        state = rpc_state(network)
        dispatches = []
        state.on_dispatch.append(lambda *args: dispatches.append(args))

        client = network.bind("cli", 31000)

        def duplicate_sender():
            client.send(daemon.address, Request(99, Ping(2)))
            yield kernel.timeout(0.2)  # handled; response now cached
            client.send(daemon.address, Request(99, Ping(2)))
            yield kernel.timeout(0.2)

        process = kernel.spawn(duplicate_sender(), name="dup-sender")
        kernel.run(until=process)

        # Two frames arrived, but only the first ran a handler — the
        # replay answered from cache without firing observer hooks.
        assert len(dispatches) == 1
        assert len(daemon.rpc.cache) == 1

    def test_raising_dispatch_hook_is_logged_not_propagated(self):
        kernel, network, daemon = make_world()
        state = rpc_state(network)

        def bad_hook(*args):
            raise ValueError("broken observer")

        state.on_dispatch.append(bad_hook)

        result = run_call(kernel, network, daemon, Ping(9))

        assert result == Pong(9)
        errors = [r for r in kernel.log.records
                  if r.level == "ERROR" and r.source == daemon.tag]
        assert len(errors) == 1
        assert "observer hook" in errors[0].message


class TestRunHooks:
    def test_hooks_run_in_registration_order(self):
        order = []
        run_hooks([lambda: order.append("a"), lambda: order.append("b")])
        assert order == ["a", "b"]

    def test_raising_hook_without_logger_is_still_swallowed(self):
        def boom():
            raise RuntimeError("no logger available")

        run_hooks([boom], log=None)  # must not raise

    def test_later_hooks_still_run_after_a_failure(self):
        order = []

        def boom():
            raise RuntimeError("first hook broke")

        run_hooks([boom, lambda: order.append("survivor")])
        assert order == ["survivor"]
