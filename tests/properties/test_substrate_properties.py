"""Property-based tests of the substrates: DES kernel and transport.

* events fire in non-decreasing time order, ties in creation order;
* the reliable transport delivers any message pattern, under any loss rate
  below 1, exactly once and in per-sender FIFO order;
* a group send is observably the sorted loop of one-address sends it
  replaced — same receivers, payloads, drop counters and RNG consumption;
  same arrival times on a switch, none later on the hub (CI runs this one a
  second time with ``REPRO_SANITIZE=1``).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net import Address, Network, Transport
from repro.net.link import FAST_ETHERNET, LinkModel
from repro.sim import Kernel
from tests.integration.conftest import SANITIZE, assert_sanitizer_clean


@settings(max_examples=100, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40))
def test_kernel_fires_in_time_order(delays):
    kernel = Kernel()
    fired: list[tuple[float, int]] = []
    for index, delay in enumerate(delays):
        timeout = kernel.timeout(delay)
        timeout.callbacks.append(
            lambda _e, i=index: fired.append((kernel.now, i))
        )
    kernel.run()
    assert len(fired) == len(delays)
    times = [t for t, _i in fired]
    assert times == sorted(times)
    # Ties break by creation order (determinism).
    for (t1, i1), (t2, i2) in zip(fired, fired[1:]):
        if t1 == t2:
            assert i1 < i2


@settings(max_examples=100, deadline=None)
@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=20),
    until=st.floats(min_value=0.0, max_value=12.0),
)
def test_run_until_is_a_clean_cut(delays, until):
    kernel = Kernel()
    fired = []
    for delay in delays:
        kernel.timeout(delay).callbacks.append(lambda _e: fired.append(kernel.now))
    kernel.run(until=until)
    assert all(t <= until for t in fired)
    assert len(fired) == sum(1 for d in delays if d <= until)
    assert kernel.now == until or not delays


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    messages=st.lists(st.integers(), min_size=1, max_size=40),
    loss=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_transport_exactly_once_fifo_under_loss(messages, loss, seed):
    kernel = Kernel(seed=seed)
    lan = LinkModel(base_latency=0.001, bandwidth=1e8, loss=loss)
    network = Network(kernel, shared_medium=False)
    network.lan = lan
    network.register_node("a")
    network.register_node("b")
    sender = Transport(network.bind("a", 1), retransmit_interval=0.01)
    received: list[int] = []
    receiver = Transport(
        network.bind("b", 1),
        retransmit_interval=0.01,
        on_message=lambda src, payload: received.append(payload),
    )
    for message in messages:
        sender.send(Address("b", 1), message)
    kernel.run(until=60.0)
    assert received == messages


_NODES = ("n0", "n1", "n2", "n3", "n4")
_SENDER = Address("n0", 1)
_ADDRESSES = [Address(node, port) for node in _NODES for port in (1, 2)]
_FAULTS = ("up", "crashed", "paused", "cut", "filtered", "slow", "unbound")


def _faulty_fabric(seed, shared, faults, loss):
    """A fabric whose nodes n1..n4 are each in one of ``_FAULTS``; returns
    it with the list every bound endpoint appends its deliveries to."""
    kernel = Kernel(seed=seed, sanitize=SANITIZE)
    net = Network(kernel, shared_medium=shared)
    net.lan = FAST_ETHERNET.with_loss(loss)
    arrivals = []
    for node, fault in zip(_NODES, ("up",) + tuple(faults)):
        net.register_node(node)
        if fault != "unbound":
            for port in (1, 2):
                net.bind(node, port).on_delivery(
                    lambda d: arrivals.append((d.dst, d.delivered_at, d.payload)))
        if fault == "crashed":
            net.set_node_up(node, False)
        elif fault == "paused":
            net.pause_node(node)
        elif fault == "cut":
            net.partitions.cut_link("n0", node)
        elif fault == "filtered":
            net.add_drop_filter(lambda s, d, p, node=node: d.node == node)
        elif fault == "slow":
            net.set_node_slowdown(node, 0.01)
    return kernel, net, arrivals


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    shared=st.booleans(),
    faults=st.tuples(*[st.sampled_from(_FAULTS)] * 4),
    loss=st.sampled_from([0.0, 0.3]),
    sends=st.lists(
        st.tuples(st.lists(st.sampled_from(_ADDRESSES), unique=True, max_size=8),
                  st.lists(st.integers(), max_size=4)),
        min_size=1, max_size=4),
    crash_in_flight=st.none() | st.sampled_from(_NODES[1:]),
)
def test_group_send_equals_sorted_unicast_loop(
    seed, shared, faults, loss, sends, crash_in_flight
):
    runs = []
    for grouped in (True, False):
        kernel, net, arrivals = _faulty_fabric(seed, shared, faults, loss)
        for group, payload in sends:
            if grouped:
                net.send(_SENDER, group, payload)
            else:
                for dst in sorted(group):
                    net.send(_SENDER, dst, payload)
        if crash_in_flight is not None:
            net.set_node_up(crash_in_flight, False)
        kernel.run()
        assert_sanitizer_clean(kernel)
        ledger = {k: v for k, v in net.stats.items()
                  if k == "delivered" or k.startswith("dropped_")}
        # The next draw is equal iff both runs took the same number: block
        # draws hide a difference from the generator's own next value.
        runs.append((sorted(arrivals), ledger, net._draw()))
    (group_arrivals, group_ledger, group_rng), (loop_arrivals, loop_ledger, loop_rng) = runs
    assert group_ledger == loop_ledger
    assert group_rng == loop_rng  # the ``net`` stream was consumed identically
    if not shared:
        assert group_arrivals == loop_arrivals
    else:
        # The hub carries a group frame once, so nothing queues longer.
        by_copy = lambda arrival: (arrival[0], arrival[2], arrival[1])
        group_arrivals.sort(key=by_copy)
        loop_arrivals.sort(key=by_copy)
        assert [(d, p) for d, _t, p in group_arrivals] == [
            (d, p) for d, _t, p in loop_arrivals]
        assert all(g[1] <= l[1] for g, l in zip(group_arrivals, loop_arrivals))

