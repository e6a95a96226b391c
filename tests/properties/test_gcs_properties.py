"""Property-based tests of the GCS invariants.

Hypothesis drives randomized workloads (who multicasts what, when, with
which service) and randomized single-failure schedules through the full
simulated stack, then checks the paper-relevant guarantees:

* the group's contract (:mod:`repro.gcs.contract`, the checker the chaos
  suite runs too): gap-free delivery, one message per ``(view, seq)``,
  virtual synchrony, SAFE delivery and self-delivery, on every member;
* agreement across the whole run (live members deliver the same
  sequence),
* exactly-once for surviving senders,
* SAFE copies exist at all members of the delivery view.

And, without the stack: the delivery queue's monotone ready cursor is
observably the from-zero rescan it replaced, and its delivered tracker is
observably the plain id set it replaced.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gcs import GroupConfig, GroupMember, boot_static_group
from repro.gcs.contract import GroupContract
from repro.gcs.delivery import DeliveredTracker, DeliveryQueue
from repro.gcs.messages import AGREED, INCARNATION_SHIFT, SAFE, DataMsg, MessageId
from repro.gcs.view import View
from repro.net import Address, Network
from repro.net.codec import WIRE
from repro.net.link import FAST_ETHERNET
from repro.sim import Kernel

GCS_PORT = 9
FAST = GroupConfig(
    heartbeat_interval=0.05,
    suspect_timeout=0.16,
    flush_timeout=0.3,
    retransmit_interval=0.02,
)


def build_group(n, seed, loss=0.0, ordering="sequencer"):
    kernel = Kernel(seed=seed)
    lan = FAST_ETHERNET.with_loss(loss) if loss else FAST_ETHERNET
    net = Network(kernel, shared_medium=False)
    net.lan = lan
    config = GroupConfig(
        heartbeat_interval=FAST.heartbeat_interval,
        suspect_timeout=FAST.suspect_timeout,
        flush_timeout=FAST.flush_timeout,
        retransmit_interval=FAST.retransmit_interval,
        ordering=ordering,
    )
    delivered = {}
    members = {}
    contract = GroupContract()
    for i in range(n):
        name = f"n{i}"
        net.register_node(name)
        delivered[name] = []
        members[name] = GroupMember(
            net.bind(name, GCS_PORT),
            config,
            on_deliver=lambda m, nm=name: delivered[nm].append(m),
        )
        contract.attach(members[name])
    boot_static_group(list(members.values()))
    return kernel, contract, net, members, delivered


# One "script" step: (sender index, service, delay before sending).
script_step = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.sampled_from([AGREED, SAFE]),
    st.floats(min_value=0.0, max_value=0.02),
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(min_value=2, max_value=4),
    script=st.lists(script_step, min_size=1, max_size=12),
    seed=st.integers(min_value=0, max_value=2**16),
    ordering=st.sampled_from(["sequencer", "token"]),
)
def test_total_order_and_agreement_no_faults(n, script, seed, ordering):
    kernel, contract, net, members, delivered = build_group(n, seed, ordering=ordering)
    names = sorted(members)

    def driver():
        sent = 0
        for sender_ix, service, delay in script:
            if delay:
                yield kernel.timeout(delay)
            members[names[sender_ix % n]].multicast(f"m{sent}", service=service)
            sent += 1

    kernel.spawn(driver())
    kernel.run(until=5.0)

    assert contract.close() == []
    sequences = [[m.msg_id for m in delivered[name]] for name in names]
    # No faults: everyone delivers everything.
    assert all(len(seq) == len(script) for seq in sequences)
    # Exactly-once.
    for seq in sequences:
        assert len(set(seq)) == len(seq)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    script=st.lists(script_step, min_size=1, max_size=10),
    crash_victim=st.integers(min_value=0, max_value=2),
    crash_after=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_invariants_with_one_crash(script, crash_victim, crash_after, seed):
    n = 3
    kernel, contract, net, members, delivered = build_group(n, seed)
    names = sorted(members)
    victim = names[crash_victim]

    def driver():
        for index, (sender_ix, service, delay) in enumerate(script):
            if index == min(crash_after, len(script) - 1):
                members[victim].stop()
                net.set_node_up(victim, False)
            if delay:
                yield kernel.timeout(delay)
            sender = names[sender_ix % n]
            if members[sender].state != "stopped":
                members[sender].multicast(f"m{index}", service=service)

    kernel.spawn(driver())
    kernel.run(until=8.0)

    assert contract.close() == []
    survivors = [name for name in names if name != victim]
    sequences = [[m.msg_id for m in delivered[name]] for name in survivors]
    # Survivors deliver one sequence, across the view change too.
    assert sequences[0] == sequences[1]
    # Exactly-once everywhere.
    for seq in sequences:
        assert len(set(seq)) == len(seq)
    # Messages multicast by a *surviving* sender are delivered by survivors.
    for name in survivors:
        own = {m.msg_id for m in delivered[name] if m.sender == Address(name, GCS_PORT)}
        assert len(own) == members[name].stats["multicasts"]


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    script=st.lists(script_step, min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**16),
    loss=st.floats(min_value=0.0, max_value=0.2),
)
def test_total_order_under_loss(script, seed, loss):
    n = 3
    kernel, contract, net, members, delivered = build_group(n, seed, loss=loss)
    names = sorted(members)

    def driver():
        for index, (sender_ix, service, delay) in enumerate(script):
            if delay:
                yield kernel.timeout(delay)
            # The last multicast is always SAFE: its stability acks are
            # unreliable frames no later (cumulative) ack covers, so a lost
            # one is delivered only if the beacon repairs it.
            if index == len(script) - 1:
                service = SAFE
            members[names[sender_ix % n]].multicast(index, service=service)

    kernel.spawn(driver())
    kernel.run(until=10.0)

    assert contract.close() == []
    sequences = [[m.msg_id for m in delivered[name]] for name in names]
    assert all(len(seq) == len(script) for seq in sequences)
    assert all(seq == sequences[0] for seq in sequences)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    safe_count=st.integers(min_value=1, max_value=6),
)
def test_safe_delivery_implies_all_members_hold_copy(seed, safe_count):
    n = 3
    kernel, contract, net, members, delivered = build_group(n, seed)
    names = sorted(members)
    held_at_delivery = []

    def check(msg):
        held_at_delivery.append(
            all(msg.msg_id in members[name].queue._data for name in names)
        )

    members["n0"].on_deliver = check
    for k in range(safe_count):
        members["n1"].multicast(k, service=SAFE)
    kernel.run(until=3.0)
    assert held_at_delivery and all(held_at_delivery)


# -- DeliveryQueue: the ready cursor equals a from-zero rescan ------------------

MEMBERS = [Address("n0", GCS_PORT), Address("n1", GCS_PORT)]


class RescanQueue(DeliveryQueue):
    """Reference: ``agreed_ready_through`` as it was before the monotone
    cursor — every call rescans the view's whole history from seq 0."""

    def agreed_ready_through(self) -> int:
        seq = -1
        while (seq + 1) in self._order:
            msg_id = self._order[seq + 1]
            if msg_id not in self._data and msg_id not in self._delivered:
                break
            seq += 1
        return seq


queue_op = st.one_of(
    st.tuples(st.just("data"), st.integers(0, 11)),
    st.tuples(st.just("order"), st.integers(0, 11)),
    st.tuples(st.just("stable"), st.integers(0, 1), st.integers(-1, 12)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("gc")),
    st.tuples(st.just("ready")),
    # New view whose closing list re-injects this many messages of the old
    # one (delivered or not, in an order of the strategy's choosing).
    st.tuples(st.just("view"), st.lists(st.integers(0, 11), max_size=4, unique=True)),
)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(queue_op, max_size=60))
def test_ready_cursor_equals_rescan_from_zero(ops):
    """Arbitrary interleavings of add_data / add_assignments / record_stable
    / pop_deliverable / gc / start_view: the cursor-keeping queue and the
    rescanning reference agree on every observable result."""
    queues = [DeliveryQueue(MEMBERS[0]), RescanQueue(MEMBERS[0])]
    view_id = 1
    for queue in queues:
        queue.start_view(View(view_id, tuple(MEMBERS)), ())
    base = 0  # seqs 0..base-1 belong to the closing list

    def message(view, slot):
        # Fresh ids per view, so one id is never ordered at two seqs; even
        # slots are SAFE (blocked by stability), odd ones AGREED.
        return DataMsg(MessageId(MEMBERS[slot % 2], 100 * view + slot), view,
                       SAFE if slot % 2 == 0 else AGREED, f"p{slot}")

    for op in ops:
        kind = op[0]
        if kind == "data":
            results = [q.add_data(message(view_id, op[1])) for q in queues]
        elif kind == "order":
            entry = (base + op[1], message(view_id, op[1]).msg_id)
            results = [q.add_assignments([entry]) for q in queues]
        elif kind == "stable":
            results = [q.record_stable(MEMBERS[op[1]], op[2]) for q in queues]
        elif kind == "pop":
            results = [q.pop_deliverable() for q in queues]
        elif kind == "gc":
            results = [q.gc() for q in queues]
        elif kind == "ready":
            results = [q.agreed_ready_through() for q in queues]
        else:
            closing = [
                (m.msg_id, m.service, m.payload)
                for m in (message(view_id, slot) for slot in op[1])
            ]
            view_id += 1
            base = len(closing)
            results = [q.start_view(View(view_id, tuple(MEMBERS)), closing)
                       for q in queues]
        assert results[0] == results[1], op
    assert queues[0].agreed_ready_through() == queues[1].agreed_ready_through()
    assert queues[0].snapshot() == queues[1].snapshot()
    assert queues[0].flush_report() == queues[1].flush_report()


# -- DeliveredTracker: exactly a set of ids, in a fraction of the space ---------

tracked_id = st.builds(
    lambda sender, incarnation, n: MessageId(
        Address(f"n{sender}", GCS_PORT), (incarnation << INCARNATION_SHIFT) | n
    ),
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 9),
)


@settings(max_examples=300, deadline=None)
@given(adds=st.lists(tracked_id, max_size=80))
def test_delivered_tracker_equals_plain_set(adds):
    """Arbitrary interleavings of senders, incarnations and out-of-order
    (and repeated) adds: membership is that of a plain set at every step,
    the size is the number of runs, and the report survives the wire."""
    universe = [
        MessageId(Address(f"n{s}", GCS_PORT), (i << INCARNATION_SHIFT) | n)
        for s in range(3) for i in range(3) for n in range(-1, 11)
    ]
    tracker, model = DeliveredTracker(), set()
    for msg_id in adds:
        tracker.add(msg_id)
        model.add(msg_id)
        assert [m in tracker for m in universe] == [m in model for m in universe]
    runs = sum(
        1 for m in model if MessageId(m.sender, m.counter - 1) not in model
    )
    assert len(tracker) == runs
    report = tracker.report()
    assert report == tuple(sorted(report))
    rebuilt = DeliveredTracker(WIRE.decode(WIRE.encode(report)))
    assert rebuilt.report() == report
    assert [m in rebuilt for m in universe] == [m in model for m in universe]
