"""Ids that survive a restart, and delivered memory that stays small.

A restarted member numbers its multicasts from a fresh *incarnation*
(``MessageId.counter``'s high bits), so the survivors — who remember every
id they ever delivered — cannot mistake its new traffic for its old; and
what they remember is a :class:`DeliveredTracker` (runs of consecutive
counters per sender), which is also what a ``FlushOk`` carries.

CI runs this module a second time with ``REPRO_SANITIZE=1``.
"""

from dataclasses import replace

import pytest

from repro.gcs.delivery import DeliveredTracker
from repro.gcs.flush import FlushAttempt, FlushEngine
from repro.gcs.messages import (
    AGREED,
    INCARNATION_SHIFT,
    FlushOk,
    MessageId,
)
from repro.net import Address
from repro.net.codec import encoded_size

from tests.integration.conftest import SANITIZE, assert_sanitizer_clean
from tests.unit.test_gcs_member import FAST, GCS_PORT, Harness


def harness(n, **kwargs):
    return Harness(n, sanitize=SANITIZE, **kwargs)


def restart(h, name, contact):
    """Bring *name* back as a new process at the same address."""
    h.net.set_node_up(name, True)
    fresh = h.attach(name)
    fresh.join([h.addr(contact)])
    return fresh


# -- (a) a fresh incarnation's first multicast --------------------------------


@pytest.mark.parametrize("ordering", ["sequencer", "token"])
def test_restarted_member_first_multicast_delivered_once_everywhere(ordering):
    """C multicasts 5, crashes, a fresh C joins and multicasts once. Before
    incarnations the fresh C re-issued id (C, 0): the survivors skipped it
    as a duplicate while C itself delivered it — an order divergence."""
    h = harness(3, config=replace(FAST, ordering=ordering))
    h.boot()
    h.run(until=0.5)
    for k in range(5):
        h.members["n2"].multicast(f"old{k}")
    h.run(until=1.0)
    h.crash("n2")
    h.run(until=2.5)
    assert h.members["n0"].view.size == 2
    fresh = restart(h, "n2", "n0")
    h.run(until=5.0)
    assert fresh.state == "normal" and fresh.view.size == 3
    msg_id = fresh.multicast("new life")
    assert msg_id.counter == 1 << INCARNATION_SHIFT
    h.run(until=7.0)
    expected = [f"old{k}" for k in range(5)] + ["new life"]
    for name in ("n0", "n1", "n2"):  # n2's list spans both of its lives
        assert [m.payload for m in h.delivered[name]] == expected, name
    assert_sanitizer_clean(h.kernel)


def test_first_incarnation_ids_are_the_historical_ones():
    h = harness(2)
    h.boot()
    assert [h.members["n0"].multicast(k) for k in range(3)] == [
        MessageId(h.addr("n0"), k) for k in range(3)
    ]


# -- (d) endurance: the report stays small --------------------------------------


def test_delivered_report_is_bounded_by_senders_not_history(monkeypatch):
    """2 000 multicasts over three members and four view changes, one sender
    excluded with a multicast lost in flight for good."""
    reports: list[FlushOk] = []
    inner = FlushEngine.on_flush_ok

    def spy(self, src, ok):
        reports.append(ok)
        return inner(self, src, ok)

    monkeypatch.setattr(FlushEngine, "on_flush_ok", spy)
    h = harness(3, seed=5)
    h.boot()

    def settle(seconds):
        h.run(until=h.kernel.now + seconds)

    def traffic(count):
        live = h.live_names()
        for k in range(count):
            h.members[live[k % len(live)]].multicast(k)
            if k % 20 == 19:
                settle(0.05)
        settle(0.5)

    settle(0.5)
    traffic(400)
    # n2's last multicast never leaves its node, then n2 dies: the id is a
    # permanent hole in everyone's memory of (n2, incarnation 0).
    token = h.net.add_drop_filter(lambda src, dst, payload: src.node == "n2")
    lost = h.members["n2"].multicast("lost in flight")
    h.crash("n2")
    h.net.remove_drop_filter(token)
    settle(2.0)                      # view change 1: {n0, n1}
    traffic(400)
    restart(h, "n2", "n0")
    settle(3.0)                      # view change 2: n2 back (incarnation 1)
    traffic(400)
    h.crash("n1")
    settle(2.0)                      # view change 3: {n0, n2}
    traffic(400)
    restart(h, "n1", "n0")
    settle(3.0)                      # view change 4: n1 back (incarnation 1)
    traffic(400)
    settle(2.0)

    assert len(h.views["n0"]) == 5  # boot + 4 changes
    assert h.contract.close() == []
    assert len(h.delivered["n0"]) == 2000
    assert lost not in h.delivered_ids("n0")
    last = reports[-1]
    assert last.delivered_runs, "the last flush came from a veteran"
    assert encoded_size(last.delivered_runs) < 512
    # Afterwards: at most one run per (sender, incarnation) that ever got a
    # message through — nothing is in flight, the hole at the end of n2's
    # first life costs nothing, and a rejoined member's late start is one
    # run like any other.
    pairs = {(m.sender, m.counter >> INCARNATION_SHIFT) for m in h.delivered_ids("n0")}
    assert len(pairs) == 5
    for name in ("n0", "n1", "n2"):
        assert len(h.members[name].queue._delivered) <= len(pairs)
    assert_sanitizer_clean(h.kernel)


# -- (e) _finalize asks the trackers what the set intersection answered -------------


def addr(i):
    return Address(f"n{i}", GCS_PORT)


def mid(i, n, incarnation=0):
    return MessageId(addr(i), (incarnation << INCARNATION_SHIFT) | n)


def reply(epoch, sender, known, orderings, delivered, view_id):
    tracker = DeliveredTracker()
    for msg_id in delivered:
        tracker.add(msg_id)
    return FlushOk(
        epoch, sender,
        tuple((m, (AGREED, f"p{m.counter}")) for m in sorted(known)),
        tuple(sorted(orderings)), tracker.report(), view_id,
    ), set(delivered)


def closing_by_set_intersection(replies, delivered_sets, old_members):
    """The closing list as ``_finalize`` computed it from id sets."""
    known = {m for ok in replies.values() for m, _ in ok.known}
    best = max(ok.view_id for ok in replies.values())
    orderings = {
        seq: m for ok in replies.values() if ok.view_id == best
        for seq, m in ok.orderings
    }
    old = [delivered_sets[a] for a, ok in sorted(replies.items())
           if a in old_members and ok.view_id >= 0]
    delivered_by_all = set.intersection(*old) if old else set()
    ordered = [m for _seq, m in sorted(orderings.items())]
    unordered = sorted(known - set(ordered))
    return [m for m in [*ordered, *unordered]
            if m in known and m not in delivered_by_all]


#: name -> (old view members, {responder: (known, orderings, delivered, view_id)})
RECORDED = {
    # n1 is a view behind: its orderings are ignored, and what it has not
    # delivered must come back in the closing list (out of order, with a
    # hole, across two incarnations of n2).
    "lagging member": (
        [0, 1],
        {
            0: ([mid(0, 3), mid(0, 4), mid(2, 0, 1), mid(2, 1, 1), mid(1, 7)],
                [(0, mid(0, 3)), (1, mid(2, 0, 1)), (2, mid(0, 4)), (3, mid(2, 1, 1))],
                [mid(0, 0), mid(0, 1), mid(0, 2), mid(0, 3), mid(2, 0), mid(2, 0, 1),
                 mid(2, 2, 1)],
                4),
            1: ([mid(0, 3), mid(0, 4)],
                [(0, mid(0, 4))],
                [mid(0, 0), mid(0, 1), mid(0, 3), mid(2, 0)],
                3),
        },
    ),
    # A joiner (view_id -1, nothing delivered) must not empty the
    # intersection: what both veterans delivered stays out.
    "joiner": (
        [0, 1],
        {
            0: ([mid(0, 0), mid(0, 1), mid(1, 0)],
                [(0, mid(0, 0)), (1, mid(1, 0)), (2, mid(0, 1))],
                [mid(0, 0), mid(1, 0)], 2),
            1: ([mid(0, 0), mid(0, 1), mid(1, 0)],
                [(0, mid(0, 0)), (1, mid(1, 0))],
                [mid(0, 0)], 2),
            2: ([], [], [], -1),
        },
    ),
    # Nobody from the old view answered (n0 coordinates a merge of two
    # strangers): nothing counts as delivered by all.
    "no old responders": (
        [0],
        {
            1: ([mid(1, 0), mid(1, 1)], [(0, mid(1, 0))], [mid(1, 0)], 2),
            2: ([mid(2, 5)], [], [], -1),
        },
    ),
}


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_finalize_closing_equals_set_intersection(case):
    old, recorded = RECORDED[case]
    h = harness(3)
    h.members["n0"].boot([addr(i) for i in old])
    coordinator = h.members["n0"]
    epoch = (coordinator.view.view_id + 4, 1, coordinator.address)
    proposed = tuple(sorted({addr(0), *(addr(i) for i in recorded)}))
    flush = FlushAttempt(epoch, proposed, 0.0)
    delivered_sets = {}
    for i, (known, orderings, delivered, view_id) in sorted(recorded.items()):
        ok, delivered_sets[addr(i)] = reply(
            epoch, addr(i), known, orderings, delivered, view_id)
        flush.replies[addr(i)] = ok
    closings = []  # the coordinator proposes itself, so it installs too
    coordinator.transport.send = lambda dst, msg: None
    coordinator.install_view = lambda view, closing: closings.append(closing)
    coordinator.flush._finalize(flush)
    (closing,) = closings
    expected = closing_by_set_intersection(
        flush.replies, delivered_sets, {addr(i) for i in old})
    assert [entry[0] for entry in closing] == expected
    assert expected, "a case that closes nothing proves nothing"
