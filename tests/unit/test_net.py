"""Unit tests for the network substrate: links, partitions, fabric, transport."""

import pytest

import repro.net.network as network_module
from repro.net import Address, LinkModel, Network, PartitionState, Transport
from repro.net.codec import WIRE, Codec
from repro.net.link import FAST_ETHERNET, LOOPBACK
from repro.net.network import DATAGRAM_OVERHEAD
from repro.sim import Kernel
from repro.util.errors import AddressInUse, NetworkError, NodeDown
from tests.integration.conftest import SANITIZE, assert_sanitizer_clean


@pytest.fixture
def kernel():
    return Kernel(seed=7)


def latency(delivery) -> float:
    """Simulated seconds *delivery* spent between send and delivery."""
    return delivery.delivered_at - delivery.sent_at


@pytest.fixture
def net(kernel):
    network = Network(kernel)
    for name in ("a", "b", "c"):
        network.register_node(name)
    return network


class TestLinkModel:
    def test_delay_includes_serialisation(self):
        model = LinkModel(base_latency=0.001, bandwidth=1000, jitter=0.0)
        rng = Kernel().streams.get("x")
        assert model.delay(500, rng.random) == pytest.approx(0.001 + 0.5)

    def test_jitter_bounded(self):
        model = LinkModel(base_latency=0.0, bandwidth=1e9, jitter=0.01)
        rng = Kernel().streams.get("x")
        delays = [model.delay(0, rng.random) for _ in range(200)]
        assert all(0.0 <= d <= 0.01 for d in delays)
        assert max(delays) > 0.0

    def test_loss_probability(self):
        model = LinkModel(loss=0.5)
        rng = Kernel().streams.get("x")
        drops = sum(model.dropped(rng.random) for _ in range(2000))
        assert 800 < drops < 1200

    def test_zero_loss_never_drops(self):
        rng = Kernel().streams.get("x")
        assert not any(FAST_ETHERNET.dropped(rng.random) for _ in range(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkModel(base_latency=-1)
        with pytest.raises(ValueError):
            LinkModel(bandwidth=0)
        with pytest.raises(ValueError):
            LinkModel(loss=1.0)

    def test_with_loss_copies(self):
        lossy = FAST_ETHERNET.with_loss(0.1)
        assert lossy.loss == 0.1
        assert lossy.base_latency == FAST_ETHERNET.base_latency

    def test_loopback_faster_than_lan(self):
        rng = Kernel().streams.get("x")
        assert LOOPBACK.delay(100, rng.random) < FAST_ETHERNET.delay(100, rng.random)


class TestPartitionState:
    def test_initially_all_reachable(self):
        p = PartitionState()
        assert p.reachable("a", "b")

    def test_cut_and_restore_link(self):
        p = PartitionState()
        p.cut_link("a", "b")
        assert not p.reachable("a", "b")
        assert not p.reachable("b", "a")
        assert p.reachable("a", "c")
        p.restore_link("b", "a")  # order-insensitive
        assert p.reachable("a", "b")

    def test_cut_loopback_rejected(self):
        with pytest.raises(NetworkError):
            PartitionState().cut_link("a", "a")

    def test_partition_groups(self):
        p = PartitionState()
        p.set_partitions([["a", "b"], ["c"]])
        assert p.reachable("a", "b")
        assert not p.reachable("a", "c")
        assert p.reachable("c", "c")

    def test_unlisted_node_isolated(self):
        p = PartitionState()
        p.set_partitions([["a", "b"]])
        assert not p.reachable("a", "z")

    def test_heal(self):
        p = PartitionState()
        p.set_partitions([["a"], ["b"]])
        p.heal_partitions()
        assert p.reachable("a", "b")

    def test_heal_keeps_cut_links(self):
        p = PartitionState()
        p.cut_link("a", "b")
        p.set_partitions([["a"], ["b"]])
        p.heal_partitions()
        assert not p.reachable("a", "b")

    def test_duplicate_node_in_groups_rejected(self):
        with pytest.raises(NetworkError):
            PartitionState().set_partitions([["a"], ["a"]])

    def test_cut_links_listing(self):
        p = PartitionState()
        p.cut_link("b", "a")
        assert p.cut_links == [("a", "b")]


class TestNetwork:
    def test_basic_delivery(self, kernel, net):
        src = net.bind("a", 1)
        dst = net.bind("b", 1)
        src.send(Address("b", 1), "hello")
        got = []
        def rx(k):
            got.append((yield dst.recv()))
        kernel.spawn(rx(kernel))
        kernel.run()
        [delivery] = got
        assert delivery.payload == "hello"
        assert delivery.src == Address("a", 1)
        assert latency(delivery) > 0

    def test_local_delivery_uses_loopback(self, kernel, net):
        a1 = net.bind("a", 1)
        a2 = net.bind("a", 2)
        b1 = net.bind("b", 1)
        a1.send(Address("a", 2), "local")
        a1.send(Address("b", 1), "remote")
        res = {}
        def rx(k, ep, tag):
            d = yield ep.recv()
            res[tag] = latency(d)
        kernel.spawn(rx(kernel, a2, "local"))
        kernel.spawn(rx(kernel, b1, "remote"))
        kernel.run()
        assert res["local"] < res["remote"]

    def test_double_bind_rejected(self, net):
        net.bind("a", 5)
        with pytest.raises(AddressInUse):
            net.bind("a", 5)

    def test_bind_unknown_node(self, net):
        with pytest.raises(NetworkError):
            net.bind("zz", 1)

    def test_send_from_down_node_raises(self, kernel, net):
        src = net.bind("a", 1)
        net.set_node_up("a", False)
        with pytest.raises(NodeDown):
            net.send(Address("a", 1), Address("b", 1), "x")

    def test_send_to_down_node_dropped(self, kernel, net):
        src = net.bind("a", 1)
        net.bind("b", 1)
        net.set_node_up("b", False)
        src.send(Address("b", 1), "x")
        kernel.run()
        assert net.stats["dropped_down"] == 1
        assert net.stats["delivered"] == 0

    def test_crash_mid_flight_drops(self, kernel, net):
        src = net.bind("a", 1)
        net.bind("b", 1)
        src.send(Address("b", 1), "x")
        net.set_node_up("b", False)  # crash before delivery timer fires
        kernel.run()
        assert net.stats["delivered"] == 0

    def test_unbound_port_dropped(self, kernel, net):
        src = net.bind("a", 1)
        src.send(Address("b", 99), "x")
        kernel.run()
        assert net.stats["dropped_unbound"] == 1

    def test_partition_drops(self, kernel, net):
        src = net.bind("a", 1)
        net.bind("b", 1)
        net.partitions.set_partitions([["a"], ["b", "c"]])
        src.send(Address("b", 1), "x")
        kernel.run()
        assert net.stats["dropped_unreachable"] == 1

    def test_node_crash_closes_endpoints(self, kernel, net):
        ep = net.bind("a", 1)
        net.set_node_up("a", False)
        assert ep.closed

    def test_rebind_after_restart(self, kernel, net):
        net.bind("a", 1)
        net.set_node_up("a", False)
        net.set_node_up("a", True)
        ep = net.bind("a", 1)  # old binding was cleared by the crash
        assert not ep.closed

    def test_callback_delivery(self, kernel, net):
        src = net.bind("a", 1)
        dst = net.bind("b", 1)
        got = []
        dst.on_delivery(lambda d: got.append(d.payload))
        src.send(Address("b", 1), "cb")
        kernel.run()
        assert got == ["cb"]

    def test_shared_medium_contention(self, kernel):
        """On the hub, many simultaneous large messages queue behind each
        other; on a switch they do not."""
        def elapsed(shared):
            k = Kernel(seed=1)
            slow_lan = LinkModel(base_latency=0.0001, bandwidth=1e5, jitter=0.0)
            n = Network(k, shared_medium=shared)
            n.lan = slow_lan
            n.register_node("a"); n.register_node("b")
            src = n.bind("a", 1)
            dst = n.bind("b", 1)
            for _ in range(10):
                src.send(Address("b", 1), "y" * 1000)
            times = []
            def rx(kk):
                for _ in range(10):
                    d = yield dst.recv()
                    times.append(kk.now)
            k.spawn(rx(k))
            k.run()
            return max(times)
        assert elapsed(True) > elapsed(False) * 2

    def test_duplicate_node_registration(self, net):
        with pytest.raises(NetworkError):
            net.register_node("a")

    def test_stats_bytes_counted(self, kernel, net):
        src = net.bind("a", 1)
        net.bind("b", 1)
        src.send(Address("b", 1), "data")
        expected = len(WIRE.encode("data")) + DATAGRAM_OVERHEAD
        assert net.stats["bytes_offered"] == expected
        assert net.stats["bytes_wire"] == expected  # off-node, not dropped
        assert net.stats["bytes_delivered"] == 0  # still in flight
        kernel.run()
        assert net.stats["bytes_delivered"] == expected
        assert net.wire_bytes_by_type == {"str": expected}
        assert net.offered_bytes_by_type == {"str": expected}

    def test_dropped_frames_offered_but_not_on_wire(self, kernel, net):
        """The satellite fix: only frames that actually occupy the wire feed
        the wire/contention byte accounting; drops still count as offered."""
        src = net.bind("a", 1)
        net.bind("b", 1)
        token = net.add_drop_filter(lambda s, d, p: p == "doomed")
        src.send(Address("b", 1), "doomed")
        assert net.stats["dropped_filtered"] == 1
        assert net.stats["bytes_offered"] > 0
        assert net.stats["bytes_wire"] == 0
        assert net.stats["bytes_delivered"] == 0
        assert net.wire_bytes_by_type == {}
        net.remove_drop_filter(token)

    def test_offered_ledger_sees_drop_filtered_frames(self, kernel, net):
        """Regression: ``bytes_offered`` counted drop-filtered frames, but no
        per-type breakdown did — targeted-loss experiments could not tell
        *which* traffic was being eaten. The offered ledger is charged at the
        same site as ``bytes_offered``, before every drop decision."""
        src = net.bind("a", 1)
        net.bind("b", 1)
        token = net.add_drop_filter(lambda s, d, p: p == "doomed")
        src.send(Address("b", 1), "doomed")
        src.send(Address("b", 1), 123)
        kernel.run()
        expected_doomed = len(WIRE.encode("doomed")) + DATAGRAM_OVERHEAD
        expected_int = len(WIRE.encode(123)) + DATAGRAM_OVERHEAD
        assert net.offered_bytes_by_type == {
            "str": expected_doomed,
            "int": expected_int,
        }
        # The wire ledger still only sees the survivor.
        assert net.wire_bytes_by_type == {"int": expected_int}
        assert (
            sum(net.offered_bytes_by_type.values()) == net.stats["bytes_offered"]
        )
        net.remove_drop_filter(token)

    def test_partitioned_frames_not_on_wire(self, kernel, net):
        src = net.bind("a", 1)
        net.bind("b", 1)
        net.partitions.cut_link("a", "b")
        src.send(Address("b", 1), "x")
        assert net.stats["dropped_unreachable"] == 1
        assert net.stats["bytes_offered"] > 0
        assert net.stats["bytes_wire"] == 0

    def test_local_frames_never_on_shared_wire(self, kernel, net):
        src = net.bind("a", 1)
        net.bind("a", 2)
        src.send(Address("a", 2), "x")
        kernel.run()
        assert net.stats["bytes_delivered"] > 0
        assert net.stats["bytes_wire"] == 0  # loopback skips the hub


class TestGroupSend:
    """One frame addressed to a group is one transmission; everything that
    belongs to a receiver stays per receiver. CI runs this class a second
    time with ``REPRO_SANITIZE=1``."""

    GROUP = (Address("b", 1), Address("c", 1), Address("d", 1))

    def build(self, *, shared=True, lan=FAST_ETHERNET):
        kernel = Kernel(seed=7, sanitize=SANITIZE)
        net = Network(kernel, shared_medium=shared)
        net.lan = lan
        for name in ("a", "b", "c", "d"):
            net.register_node(name)
        src = net.bind("a", 1)
        got = {}
        for dst in self.GROUP:
            net.bind(dst.node, dst.port).on_delivery(
                lambda d, dst=dst: got.setdefault(dst, []).append(d))
        return kernel, net, src, got

    @pytest.mark.parametrize("shared", [True, False])
    def test_encoded_offered_and_charged_once(self, shared, monkeypatch):
        kernel, net, src, got = self.build(shared=shared)
        codec = Codec()
        for cls in WIRE._records_by_type:
            codec.register(cls)
        encodes = []
        inner = codec.encode
        codec.encode = lambda value: (encodes.append(value), inner(value))[1]
        monkeypatch.setattr(network_module, "WIRE", codec)
        frames = []
        net.on_frame.append(lambda *args: frames.append(args))
        # Any order, duplicates and all: the fabric canonicalises the group.
        src.send([self.GROUP[2], self.GROUP[0], self.GROUP[1], self.GROUP[0]],
                 "beacon")
        size = len(WIRE.encode("beacon")) + DATAGRAM_OVERHEAD
        assert encodes == ["beacon"]
        assert frames == [
            (0.0, Address("a", 1), self.GROUP, "str", size, "beacon")
        ]
        kernel.run()
        assert net.stats["sent"] == 1
        assert net.stats["bytes_offered"] == size
        assert net.offered_bytes_by_type == {"str": size}
        assert net.stats["bytes_wire"] == size
        assert net.wire_bytes_by_type == {"str": size}
        assert net.stats["delivered"] == 3
        assert net.stats["bytes_delivered"] == 3 * size
        assert sorted(got) == list(self.GROUP)
        assert_sanitizer_clean(kernel)

    def test_one_occupancy_of_the_shared_wire(self):
        """The hub is busy for one serialisation time, not three: a frame
        sent right behind a group frame queues behind exactly one."""
        slow = LinkModel(base_latency=0.0001, bandwidth=1e4, jitter=0.0)
        kernel, net, src, got = self.build(lan=slow)
        src.send(self.GROUP, "x" * 100)
        src.send(self.GROUP[0], "y")
        kernel.run()
        first, second = got[self.GROUP[0]]
        assert latency(second) == pytest.approx(
            first.size / slow.bandwidth + slow.delay(second.size, None))
        # ... and every receiver of the group frame heard it at once.
        assert {d.delivered_at for ds in got.values() for d in ds[:1]} == {
            first.delivered_at}
        assert_sanitizer_clean(kernel)

    def test_no_wire_charge_when_no_receiver_survives(self):
        kernel, net, src, got = self.build()
        net.partitions.set_partitions([["a"], ["b", "c", "d"]])
        src.send(self.GROUP, "x")
        kernel.run()
        assert net.stats["sent"] == 1 and net.stats["bytes_offered"] > 0
        assert net.stats["dropped_unreachable"] == 3
        assert net.stats["bytes_wire"] == 0 and net.wire_bytes_by_type == {}
        assert net._wire_free_at == 0.0
        assert got == {}

    def test_on_node_member_gets_loopback_and_no_wire_charge(self):
        kernel, net, src, got = self.build()
        local = Address("a", 2)
        net.bind("a", 2).on_delivery(lambda d: got.setdefault(local, []).append(d))
        src.send((local,), "x")
        kernel.run()
        assert net.stats["bytes_wire"] == 0  # every receiver is on-node
        src.send(self.GROUP + (local,), "x")
        kernel.run()
        size = got[local][1].size
        assert net.stats["bytes_wire"] == size  # once, for the off-node three
        assert latency(got[local][1]) == pytest.approx(LOOPBACK.delay(size, None))
        assert all(latency(got[dst][0]) > latency(got[local][1])
                   for dst in self.GROUP)
        assert_sanitizer_clean(kernel)

    @pytest.mark.parametrize("fault, counter", [
        (lambda net: net.partitions.cut_link("a", "c"), "dropped_unreachable"),
        (lambda net: net.pause_node("c"), "dropped_paused"),
        (lambda net: net.set_node_up("c", False), "dropped_down"),
        (lambda net: net.add_drop_filter(lambda s, d, p: d.node == "c"),
         "dropped_filtered"),
    ], ids=["partitioned", "paused", "crashed", "filtered"])
    def test_a_faulty_receiver_loses_its_copy_alone(self, fault, counter):
        kernel, net, src, got = self.build()
        fault(net)
        src.send(self.GROUP, "x")
        kernel.run()
        assert net.stats[counter] == 1
        assert sum(v for k, v in net.stats.items() if k.startswith("dropped_")) == 1
        assert sorted(got) == [self.GROUP[0], self.GROUP[2]]
        assert net.stats["bytes_wire"] == got[self.GROUP[0]][0].size

    def test_receiver_crashing_mid_flight_is_caught_at_delivery(self):
        kernel, net, src, got = self.build()
        src.send(self.GROUP, "x")
        net.set_node_up("c", False)  # the frame is already on the wire
        kernel.run()
        assert net.stats["dropped_down"] == 1
        assert sorted(got) == [self.GROUP[0], self.GROUP[2]]

    def test_sender_faults_count_per_frame(self):
        kernel, net, src, got = self.build()
        net.pause_node("a")
        src.send(self.GROUP, "x")
        assert net.stats["dropped_paused"] == 1  # one frame, not three copies
        assert net.stats["sent"] == 0
        net.set_node_up("a", False)
        with pytest.raises(NodeDown):
            net.send(Address("a", 1), self.GROUP, "x")
        kernel.run()
        assert got == {}

    def test_every_receiver_decodes_its_own_object(self):
        """Zero jitter: all three deliveries pop at the same instant, and the
        sanitizer must see three distinguishable ties and no aliasing."""
        kernel, net, src, got = self.build(lan=FAST_ETHERNET.with_jitter(0.0))
        payload = {"jobs": ["j1"]}
        src.send(self.GROUP, payload)
        kernel.run()
        copies = [got[dst][0].payload for dst in self.GROUP]
        assert copies == [payload] * 3
        copies[0]["jobs"].append("evil")
        assert copies[1] == copies[2] == payload == {"jobs": ["j1"]}
        assert len({id(c) for c in copies} | {id(payload)}) == 4
        assert len({got[dst][0].delivered_at for dst in self.GROUP}) == 1
        assert_sanitizer_clean(kernel)

    def test_empty_group_sends_and_charges_nothing(self):
        kernel, net, src, got = self.build()
        frames = []
        net.on_frame.append(lambda *args: frames.append(args))
        src.send((), "x")
        kernel.run()
        assert frames == [] and kernel.processed_events == 0
        assert not any(net.stats.values())

    def test_a_group_naming_an_unknown_node_sends_nothing(self):
        kernel, net, src, got = self.build()
        frames = []
        net.on_frame.append(lambda *args: frames.append(args))
        with pytest.raises(NetworkError, match="unknown node 'zz'"):
            src.send([self.GROUP[0], Address("zz", 1)], "hi")
        kernel.run()
        assert got == {} and frames == []
        assert kernel.processed_events == 0
        assert not any(net.stats.values())

    def test_a_set_is_refused(self):
        kernel, net, src, got = self.build()
        for group in (set(self.GROUP), frozenset(self.GROUP)):
            with pytest.raises(TypeError, match="hash"):
                src.send(group, "x")
        assert net.stats["sent"] == 0


class TestWireIsolation:
    """The serialization boundary: no object identity crosses Network.send,
    so neither side can mutate state the other still holds."""

    def deliver_one(self, kernel, net, payload):
        src = net.bind("a", 1)
        dst = net.bind("b", 1)
        received = []
        dst.on_delivery(lambda d: received.append(d.payload))
        src.send(Address("b", 1), payload)
        kernel.run()
        assert len(received) == 1
        return received[0]

    def test_receiver_mutation_cannot_reach_the_sender(self, kernel, net):
        payload = {"jobs": ["j1", "j2"], "seq": 1}
        delivered = self.deliver_one(kernel, net, payload)
        assert delivered == payload and delivered is not payload
        delivered["jobs"].append("evil")
        delivered["seq"] = 99
        assert payload == {"jobs": ["j1", "j2"], "seq": 1}

    def test_sender_mutation_after_send_is_invisible_to_the_receiver(
        self, kernel, net
    ):
        # Encoding happens at send time: the frame is a snapshot, exactly
        # as a real NIC would have serialised it before the sender's next
        # instruction ran.
        src = net.bind("a", 1)
        dst = net.bind("b", 1)
        received = []
        dst.on_delivery(lambda d: received.append(d.payload))
        payload = ["original"]
        src.send(Address("b", 1), payload)
        payload.append("late-edit")  # while the frame is in flight
        kernel.run()
        assert received == [["original"]]


class TestFaultPrimitives:
    """Pause/freeze, per-node slowdown, and drop filters — the network-level
    hooks the fault injector builds on."""

    def test_paused_node_counts_as_down_but_keeps_endpoints(self, kernel, net):
        ep = net.bind("a", 1)
        net.pause_node("a")
        assert not net.node_is_up("a")
        assert "a" in net._paused
        assert not ep.closed  # unlike a crash: the process survives
        net.resume_node("a")
        assert net.node_is_up("a")

    def test_send_from_paused_node_silently_dropped(self, kernel, net):
        src = net.bind("a", 1)
        net.bind("b", 1)
        net.pause_node("a")
        src.send(Address("b", 1), "x")  # no NodeDown, unlike a crash
        kernel.run()
        assert net.stats["dropped_paused"] == 1
        assert net.stats["delivered"] == 0

    def test_send_to_paused_node_dropped(self, kernel, net):
        src = net.bind("a", 1)
        net.bind("b", 1)
        net.pause_node("b")
        src.send(Address("b", 1), "x")
        kernel.run()
        assert net.stats["dropped_paused"] == 1

    def test_pause_mid_flight_drops(self, kernel, net):
        src = net.bind("a", 1)
        net.bind("b", 1)
        src.send(Address("b", 1), "x")
        net.pause_node("b")  # blackout before the delivery timer fires
        kernel.run()
        assert net.stats["delivered"] == 0
        assert net.stats["dropped_paused"] == 1

    def test_resume_restores_traffic(self, kernel, net):
        src = net.bind("a", 1)
        dst = net.bind("b", 1)
        got = []
        dst.on_delivery(lambda d: got.append(d.payload))
        net.pause_node("b")
        src.send(Address("b", 1), "lost")
        net.resume_node("b")
        src.send(Address("b", 1), "after")
        kernel.run()
        assert got == ["after"]

    def test_paused_node_can_still_bind(self, kernel, net):
        # Daemons on a blacked-out node keep running and may open fresh
        # ephemeral ports (e.g. the mom's obit RPC loop); only the wire is cut.
        net.pause_node("a")
        ep = net.bind("a", 9)
        assert not ep.closed

    def test_crash_clears_pause(self, kernel, net):
        net.pause_node("a")
        net.set_node_up("a", False)
        net.set_node_up("a", True)
        assert "a" not in net._paused
        assert net.node_is_up("a")

    def test_slowdown_adds_latency_both_roles(self, kernel, net):
        def one_way(slow_node):
            k = Kernel(seed=3)
            lan = LinkModel(base_latency=0.001, bandwidth=1e9, jitter=0.0)
            n = Network(k, shared_medium=False)
            n.lan = lan
            n.register_node("a"); n.register_node("b")
            if slow_node:
                n.set_node_slowdown(slow_node, 0.05)
            src = n.bind("a", 1)
            dst = n.bind("b", 1)
            src.send(Address("b", 1), "x")
            seen = []
            def rx(kk):
                yield dst.recv()
                seen.append(kk.now)
            k.spawn(rx(k))
            k.run()
            return seen[0]
        base = one_way(None)
        assert one_way("a") == pytest.approx(base + 0.05)  # slow sender
        assert one_way("b") == pytest.approx(base + 0.05)  # slow receiver

    def test_slowdown_cleared_with_zero(self, kernel, net):
        net.set_node_slowdown("a", 0.1)
        assert net._slowdown.get("a", 0.0) == 0.1
        net.set_node_slowdown("a", 0.0)
        assert net._slowdown.get("a", 0.0) == 0.0

    def test_negative_slowdown_rejected(self, net):
        with pytest.raises(NetworkError):
            net.set_node_slowdown("a", -0.1)

    def test_drop_filter_selective(self, kernel, net):
        src = net.bind("a", 1)
        dst = net.bind("b", 1)
        got = []
        dst.on_delivery(lambda d: got.append(d.payload))
        token = net.add_drop_filter(
            lambda s, d, payload: payload == "poison"
        )
        src.send(Address("b", 1), "poison")
        src.send(Address("b", 1), "fine")
        kernel.run()
        assert got == ["fine"]
        assert net.stats["dropped_filtered"] == 1
        net.remove_drop_filter(token)
        src.send(Address("b", 1), "poison")
        kernel.run()
        assert got == ["fine", "poison"]

    def test_remove_unknown_filter_is_noop(self, net):
        net.remove_drop_filter(12345)  # must not raise


class TestTransport:
    def make_pair(self, kernel, loss=0.0):
        lan = LinkModel(base_latency=0.001, bandwidth=1e8, jitter=0.0, loss=loss)
        net = Network(kernel, shared_medium=False)
        net.lan = lan
        net.register_node("a")
        net.register_node("b")
        ta = Transport(net.bind("a", 1), retransmit_interval=0.01)
        tb = Transport(net.bind("b", 1), retransmit_interval=0.01)
        return net, ta, tb

    def test_fifo_delivery(self, kernel):
        _, ta, tb = self.make_pair(kernel)
        got = []
        tb._on_message = lambda src, p: got.append(p)
        for i in range(5):
            ta.send(Address("b", 1), i)
        kernel.run(until=1.0)
        assert got == [0, 1, 2, 3, 4]

    def test_reliable_under_loss(self, kernel):
        _, ta, tb = self.make_pair(kernel, loss=0.3)
        got = []
        tb._on_message = lambda src, p: got.append(p)
        for i in range(20):
            ta.send(Address("b", 1), i)
        kernel.run(until=5.0)
        assert got == list(range(20))
        assert ta.stats["retransmitted"] > 0

    def test_no_duplicates_despite_retransmission(self, kernel):
        # Aggressive retransmission with zero loss produces duplicates on the
        # wire; the receiver must suppress every one of them.
        _, ta, tb = self.make_pair(kernel)
        ta.retransmit_interval = 0.0005  # faster than the RTT
        got = []
        tb._on_message = lambda src, p: got.append(p)
        ta.send(Address("b", 1), "once")
        kernel.run(until=0.2)
        assert got == ["once"]
        assert tb.stats["duplicates"] > 0

    def test_bidirectional(self, kernel):
        _, ta, tb = self.make_pair(kernel)
        got_a, got_b = [], []
        ta._on_message = lambda s, p: got_a.append(p)
        tb._on_message = lambda s, p: got_b.append(p)
        ta.send(Address("b", 1), "to-b")
        tb.send(Address("a", 1), "to-a")
        kernel.run(until=1.0)
        assert got_a == ["to-a"] and got_b == ["to-b"]

    def test_outstanding_and_ack(self, kernel):
        _, ta, tb = self.make_pair(kernel)
        tb._on_message = lambda s, p: None
        ta.send(Address("b", 1), "x")
        assert len(ta._channels[Address("b", 1)].unacked) == 1
        kernel.run(until=1.0)
        assert len(ta._channels[Address("b", 1)].unacked) == 0

    def test_forget_peer_stops_retransmit(self, kernel):
        net, ta, tb = self.make_pair(kernel)
        net.set_node_up("b", False)
        ta.send(Address("b", 1), "doomed")
        kernel.run(until=0.1)
        before = ta.stats["retransmitted"]
        ta.forget_peer(Address("b", 1))
        kernel.run(until=0.2)
        assert ta.stats["retransmitted"] == before

    def test_send_after_forget_peer_reaches_live_peer(self, kernel):
        """Forgetting a falsely-suspected peer must not black-hole the
        reopened channel.

        Regression: forget_peer dropped the sender channel, and a later send
        recreated it in the *same* epoch with sequence numbers restarting at
        0 — below the live peer's next_expected — so every frame (a rejoin's
        JoinReqs included) was suppressed as a duplicate forever."""
        _, ta, tb = self.make_pair(kernel)
        got = []
        tb._on_message = lambda s, p: got.append(p)
        for i in range(3):
            ta.send(Address("b", 1), f"old-{i}")
        kernel.run(until=0.1)
        # 'a' declares 'b' failed (false suspicion — 'b' is alive and its
        # receive state still expects seq 3 in the old epoch).
        ta.forget_peer(Address("b", 1))
        ta.send(Address("b", 1), "after-forget")
        kernel.run(until=0.3)
        assert got == ["old-0", "old-1", "old-2", "after-forget"]

    def test_epoch_reset_after_restart(self, kernel):
        """A restarted peer's fresh epoch must not be confused with its old
        sequence space."""
        net, ta, tb = self.make_pair(kernel)
        got = []
        tb._on_message = lambda s, p: got.append(p)
        ta.send(Address("b", 1), "first-life")
        kernel.run(until=0.1)
        # 'a' crashes and restarts with a fresh transport (new epoch).
        net.set_node_up("a", False)
        ta.close()
        net.set_node_up("a", True)
        ta2 = Transport(net.bind("a", 1), retransmit_interval=0.01)
        ta2.send(Address("b", 1), "second-life")
        kernel.run(until=0.3)
        assert got == ["first-life", "second-life"]

    def test_send_after_close_rejected(self, kernel):
        _, ta, _ = self.make_pair(kernel)
        ta.close()
        with pytest.raises(NetworkError):
            ta.send(Address("b", 1), "x")

    def test_large_burst_all_delivered_in_order(self, kernel):
        _, ta, tb = self.make_pair(kernel, loss=0.1)
        got = []
        tb._on_message = lambda s, p: got.append(p)
        for i in range(200):
            ta.send(Address("b", 1), i)
        kernel.run(until=10.0)
        assert got == list(range(200))
