"""The group's contract, rule by rule, on hand-fed callbacks.

Each test drives :class:`~repro.gcs.contract.GroupContract` through the
same two callbacks a live member calls (``on_view``, ``on_deliver``) on
stand-in members, so every rule is shown to fire on its breach and to stay
quiet on the legal case next to it: the duplicate skip, the carried tail
of a view, a crashed or rejoined member.
"""

import pytest

from repro.gcs.contract import GroupContract
from repro.gcs.lifecycle import NORMAL, STOPPED
from repro.gcs.messages import AGREED, INCARNATION_SHIFT, SAFE, DeliveredMessage, MessageId
from repro.gcs.view import View
from repro.net import Address
from repro.util.errors import GroupCommError

A, B, C = (Address(f"n{i}", 9) for i in range(3))


class member:
    """What the contract reads of a ``GroupMember``."""

    def __init__(self, address):
        self.address = address
        self.view = None
        self.state = NORMAL
        self.on_deliver = self.on_view = None
        self.stats = {"delivered": 0, "rejoins": 0, "multicasts": 0}


def mid(sender, n, incarnation=0):
    return MessageId(sender, (incarnation << INCARNATION_SHIFT) | n)


class Group:
    """Stand-in members wired to one contract."""

    def __init__(self, *addresses):
        self.contract = GroupContract()
        self.members = {a: member(a) for a in addresses}
        for m in self.members.values():
            self.contract.attach(m)

    def view(self, view_id, *addresses):
        view = View(view_id, tuple(sorted(addresses)))
        for a in addresses:
            self.members[a].view = view
            self.members[a].on_view(view)
        return view

    def deliver(self, at, msg_id, seq, service=AGREED):
        m = self.members[at]
        m.on_deliver(DeliveredMessage(msg_id, msg_id.sender, None, service,
                                      m.view.view_id, seq))

    def rules(self):
        return [f.rule for f in self.contract.close()]


def test_agreeing_members_are_clean():
    g = Group(A, B)
    g.view(1, A, B)
    for at in (A, B):
        g.deliver(at, mid(A, 0), 0)
        g.deliver(at, mid(B, 0), 1)
    g.members[A].stats["multicasts"] = g.members[B].stats["multicasts"] = 1
    assert g.rules() == []


def test_two_messages_at_one_slot_break_total_order():
    g = Group(A, B)
    g.view(1, A, B)
    g.deliver(A, mid(A, 0), 0)
    g.deliver(B, mid(B, 0), 0)
    [finding] = g.contract.findings
    assert finding.rule == "total-order"
    assert "view 1 seq 0" in finding.detail and str(mid(A, 0)) in finding.detail


def test_skipped_seq_is_a_gap_unless_a_duplicate():
    g = Group(A, B)
    g.view(1, A, B)
    for seq in range(3):
        g.deliver(A, mid(C, seq), seq)
    g.deliver(B, mid(C, 0), 0)
    g.deliver(B, mid(C, 2), 2)
    [finding] = g.contract.findings
    assert finding.rule == "gap-free"
    assert str(B) in finding.detail and "view 1 seq 1" in finding.detail

    # A skip over a message the member already delivered is the legal one.
    g = Group(A, B)
    g.view(1, A, B)
    g.deliver(B, mid(C, 0), 0)
    g.view(2, A, B)
    g.deliver(A, mid(C, 0), 0)   # a closing carry for A, a duplicate for B
    g.deliver(A, mid(C, 1), 1)
    g.deliver(B, mid(C, 1), 1)
    assert g.rules() == []


def test_skip_judged_when_the_slot_is_first_delivered_elsewhere():
    g = Group(A, B)
    g.view(1, A, B)
    g.deliver(B, mid(C, 1), 1)   # B skips seq 0 before anyone delivered it
    assert g.contract.findings == []
    g.deliver(A, mid(C, 0), 0)
    assert [f.rule for f in g.contract.findings] == ["gap-free"]


def test_repeat_delivery_is_flagged():
    g = Group(A)
    g.view(1, A)
    g.deliver(A, mid(B, 0), 0)
    g.view(2, A)
    g.deliver(A, mid(B, 0), 0)
    assert [f.rule for f in g.contract.findings] == ["gap-free"]
    assert "again" in g.contract.findings[0].detail


def test_lagging_survivor_must_carry_the_tail_first_and_in_order():
    def lagging():
        g = Group(A, B)
        g.view(1, A, B)
        for seq in range(3):
            g.deliver(A, mid(C, seq), seq)
        g.deliver(B, mid(C, 0), 0)   # B reached seq 0 only
        g.view(2, A, B)
        return g

    g = lagging()
    g.deliver(B, mid(C, 1), 0)
    g.deliver(B, mid(C, 2), 1)
    g.deliver(A, mid(C, 9), 2)
    g.deliver(B, mid(C, 9), 2)
    assert g.rules() == []

    g = lagging()
    g.deliver(B, mid(C, 2), 0)   # seq 2 of view 1 before seq 1
    assert [f.rule for f in g.contract.findings] == ["virtual-synchrony"]
    assert "view 1 seq 1" in g.contract.findings[0].detail

    g = lagging()
    assert g.rules() == ["virtual-synchrony", "virtual-synchrony"]
    assert str(B) in g.contract.findings[0].detail


def test_late_peer_finds_new_traffic_delivered_before_its_carries():
    g = Group(A, B)
    g.view(1, A, B)
    g.deliver(A, mid(C, 0), 0)
    g.deliver(A, mid(C, 1), 1)
    g.deliver(B, mid(C, 0), 0)
    b_view = View(2, (A, B))
    g.members[B].view = b_view
    g.members[B].on_view(b_view)          # B installs first...
    g.deliver(B, mid(C, 7), 0)            # ...and delivers new traffic
    g.members[A].view = b_view
    g.members[A].on_view(b_view)          # A arrives having delivered seq 1
    assert [f.rule for f in g.contract.findings] == ["virtual-synchrony"]


def test_safe_message_is_owed_to_every_member_that_moves_on():
    g = Group(A, B, C)
    g.view(1, A, B, C)
    g.deliver(A, mid(A, 0), 0, SAFE)
    for at in (B, C):
        g.members[at].view = View(2, (B, C))
        g.members[at].on_view(g.members[at].view)
    g.members[A].stats["multicasts"] = 1
    assert g.rules() == ["safe-delivery", "safe-delivery"]
    assert [str(B) in f.detail for f in g.contract.findings] == [True, False]

    # A partition: each side moves on alone, and the SAFE message is owed to
    # the member that left before it was delivered elsewhere.
    g = Group(A, B)
    g.view(1, A, B)
    g.members[B].view = View(2, (B,))
    g.members[B].on_view(g.members[B].view)
    g.deliver(A, mid(A, 0), 0, SAFE)
    g.members[A].stats["multicasts"] = 1
    assert g.rules() == ["safe-delivery"]


def test_crashed_or_rejoined_member_owes_nothing():
    g = Group(A, B)
    g.view(1, A, B)
    g.deliver(A, mid(C, 0), 0, SAFE)
    g.view(2, A, B)
    g.members[B].state = STOPPED
    assert g.rules() == []

    g = Group(A, B)
    g.view(1, A, B)
    g.deliver(A, mid(C, 0), 0, SAFE)
    g.view(2, A, B)
    g.members[B].stats["rejoins"] = 1
    assert g.rules() == []


def test_own_multicasts_delivered_contiguously_and_all():
    g = Group(A)
    g.view(1, A)
    g.deliver(A, mid(A, 1, incarnation=2), 0)
    g.members[A].stats["multicasts"] = 2
    # Counter 0 of incarnation 2 is owed; delivering it late is legal.
    g.deliver(A, mid(A, 0, incarnation=2), 1)
    assert g.rules() == []

    g = Group(A)
    g.view(1, A)
    g.deliver(A, mid(A, 1), 0)
    g.members[A].stats["multicasts"] = 2
    assert g.rules() == ["self-delivery", "self-delivery"]
    assert f"its own {mid(A, 0)}" in g.contract.findings[0].detail

    g = Group(A)
    g.view(1, A)
    g.deliver(A, mid(A, 0), 0)
    g.members[A].stats["multicasts"] = 2
    assert g.rules() == ["self-delivery"]
    assert "1 of its 2 multicasts" in g.contract.findings[0].detail


def test_attach_after_first_delivery_is_refused():
    late = member(A)
    late.stats["delivered"] = 1
    with pytest.raises(GroupCommError):
        GroupContract().attach(late)


def test_findings_reach_the_callback_as_made():
    seen = []
    contract = GroupContract()
    contract.on_finding = seen.append
    a, b = member(A), member(B)
    for m in (a, b):
        contract.attach(m)
        m.view = View(1, (A, B))
        m.on_view(m.view)
    a.on_deliver(DeliveredMessage(mid(A, 0), A, None, AGREED, 1, 0))
    b.on_deliver(DeliveredMessage(mid(B, 0), B, None, AGREED, 1, 0))
    assert [f.rule for f in seen] == ["total-order"]
