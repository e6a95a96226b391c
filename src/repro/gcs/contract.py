"""The group's contract, checked from outside the group.

JOSHUA relies on three of the group layer's guarantees (PROTOCOLS.md §2):
reliable totally ordered delivery, SAFE delivery and fault-tolerant
membership. :class:`GroupContract` checks them once, for every caller: it
is a passive recorder fed only by each member's ``on_view`` and
``on_deliver`` callbacks, so the chaos suite runs it under JOSHUA and the
GCS tests run it under bare members, and it sends nothing.

Views are keyed by ``(view_id, members)``, so two sides of a partition
that reuse a view id are never compared. A member's deliveries in a view
are numbered by ``seq``, the view-change closing list first, from 0, as
``DeliveryQueue.start_view`` numbers it. The rules, each named as its
findings are:

* ``gap-free`` — within a view a member's seqs rise with nothing skipped,
  and no message is delivered twice in any view. A member skips a seq only
  as a duplicate: the slot's message, known from whoever delivered it,
  must be one the member had already delivered.
* ``total-order`` — two members that deliver at one ``(view, seq)``
  deliver the same message. The other rules do not imply this for a
  member that crashes mid-view, so it is a rule of its own.
* ``virtual-synchrony`` — members that install the same next view from V
  deliver the same messages of V. What one delivered in V and another did
  not, the other carries: it delivers those messages first in the next
  view (its closing list), in V's order, before anything else.
* ``safe-delivery`` — a message any member delivered SAFE in V is
  delivered by every member of V that installs a successor of V.
* ``self-delivery`` — a member delivers its own multicasts in counter
  order. Counters are contiguous within an incarnation, so a skipped one
  shows at the next with no tap on the send side.

A message a member owes under the last three rules is struck off when the
member delivers it. What is still owed at :meth:`GroupContract.close` is
a finding, unless the member stopped or left its lineage to rejoin (its
``rejoins`` count moved): the fail-stop model owes nothing to a crashed or
excluded process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.gcs.delivery import DeliveredTracker
from repro.gcs.lifecycle import NORMAL, STOPPED
from repro.gcs.messages import INCARNATION_SHIFT, SAFE, DeliveredMessage, MessageId
from repro.gcs.view import View
from repro.util.errors import GroupCommError

if TYPE_CHECKING:  # pragma: no cover
    from repro.gcs.member import GroupMember

__all__ = ["Finding", "GroupContract"]

GAP_FREE = "gap-free"
TOTAL_ORDER = "total-order"
VIRTUAL_SYNCHRONY = "virtual-synchrony"
SAFE_DELIVERY = "safe-delivery"
SELF_DELIVERY = "self-delivery"


@dataclass(frozen=True)
class Finding:
    """One breach of the contract: the rule's name and what was seen."""

    rule: str
    detail: str


class _View:
    """What the members delivered in one view."""

    __slots__ = ("view_id", "slots", "top", "holes", "left", "next_views")

    def __init__(self, view_id: int):
        self.view_id = view_id
        #: seq -> (msg_id, (first deliverer, service)).
        self.slots: dict[int, tuple[MessageId, tuple[str, str]]] = {}
        #: Highest seq anyone delivered (-1: none).
        self.top = -1
        #: seq -> processes that skipped it before anyone delivered it.
        self.holes: dict[int, list[_Process]] = {}
        #: (process, reach) of every member that installed a successor.
        self.left: list[tuple[_Process, int]] = []
        #: successor -> [highest reach, processes that came from here].
        self.next_views: dict[_View, list] = {}

    def who(self, seq: int) -> str:
        msg_id, (name, _service) = self.slots[seq]
        return f"{msg_id} (view {self.view_id} seq {seq}, delivered by {name})"


class _Process:
    """One member process, as its callbacks show it."""

    def __init__(self, member: "GroupMember"):
        self.name = str(member.address)
        self.address = member.address
        self.rejoins = member.stats["rejoins"]
        self.view: _View | None = None
        #: Next seq expected in ``view``.
        self.reach = 0
        #: Everything delivered, in any view, and in ``view`` alone.
        self.delivered = DeliveredTracker()
        self.current = DeliveredTracker()
        #: Deliveries in ``view``, and how many of them were carries judged
        #: in order (from ``carry``, or found delivered by a late peer).
        self.count = 0
        self.carried = 0
        #: Whether every slot this view's carries were judged by was known.
        self.exact = True
        #: Carries due next, in the previous view's order: msg_id -> where
        #: the peer delivered it.
        self.carry: dict[MessageId, str] = {}
        #: Owed some time: msg_id -> (rule, what it is).
        self.owed: dict[MessageId, tuple[str, str]] = {}
        #: Next own counter expected (None: none delivered yet), and how
        #: many own multicasts were delivered.
        self.next_own: int | None = None
        self.own = 0


class GroupContract:
    """Checks the group's delivery contract over every attached member.

    Every :class:`Finding` is kept in :attr:`findings`, and handed to
    :attr:`on_finding` (if set) as it is made.
    """

    def __init__(self):
        self.findings: list[Finding] = []
        self.on_finding: Callable[[Finding], None] | None = None
        self._views: dict[tuple, _View] = {}
        self._processes: dict["GroupMember", _Process] = {}
        #: Interned (deliverer, service) tags, one per pair, shared by slots.
        self._tags: dict[tuple[str, str], tuple[str, str]] = {}

    # -- the feed --------------------------------------------------------------

    def attach(self, member: "GroupMember") -> None:
        """Chain onto *member*'s callbacks. Attach a member before its first
        delivery: the rules count every delivery from it."""
        if member.stats["delivered"]:
            raise GroupCommError(f"{member.address} attached after delivering")
        process = _Process(member)
        self._processes[member] = process
        if member.view is not None:
            process.view = self._view(member.view)
        inner_deliver, inner_view = member.on_deliver, member.on_view

        def on_deliver(msg: DeliveredMessage) -> None:
            self.delivered(member, msg)
            if inner_deliver is not None:
                inner_deliver(msg)

        def on_view(view: View) -> None:
            self.installed(member, view)
            if inner_view is not None:
                inner_view(view)

        member.on_deliver = on_deliver
        member.on_view = on_view

    def installed(self, member: "GroupMember", view: View) -> None:
        """*member* installed *view* (its ``on_view``)."""
        p = self._processes[member]
        new = self._view(view)
        rejoins = member.stats["rejoins"]
        p.exact = True
        if rejoins != p.rejoins:
            # It dissolved its view to rejoin: a new lineage owes nothing.
            p.rejoins = rejoins
            p.carry.clear()
            p.owed.clear()
        elif p.view is not None:
            self._leave(p, p.view, new)
        p.view = new
        p.reach = p.count = p.carried = 0
        p.current = DeliveredTracker()

    def delivered(self, member: "GroupMember", msg: DeliveredMessage) -> None:
        """*member* delivered *msg* (its ``on_deliver``)."""
        p = self._processes[member]
        view = p.view
        if view is None:
            view = p.view = self._view(member.view)
        seq, msg_id = msg.seq, msg.msg_id
        entry = view.slots.get(seq)
        if entry is None:
            view.slots[seq] = (msg_id, self._tag(p.name, msg.service))
            view.top = max(view.top, seq)
            self._filled(view, seq, msg_id, msg.service)
        elif entry[0] != msg_id:
            self._find(
                TOTAL_ORDER,
                f"view {view.view_id} seq {seq}: {p.name} delivered {msg_id}, "
                f"{entry[1][0]} delivered {entry[0]}",
            )
            return
        if msg_id in p.delivered or seq < p.reach:
            self._find(
                GAP_FREE,
                f"{p.name} delivered {msg_id} again at view {view.view_id} "
                f"seq {seq} (next expected seq {p.reach})",
            )
            return
        for skipped in range(p.reach, seq):
            known = view.slots.get(skipped)
            if known is None:
                view.holes.setdefault(skipped, []).append(p)
            elif known[0] not in p.delivered:
                self._find(GAP_FREE, f"{p.name} skipped {view.who(skipped)}")
        p.reach = seq + 1
        p.delivered.add(msg_id)
        p.current.add(msg_id)
        p.count += 1
        if msg_id.sender == p.address:
            self._own(p, msg_id)
        if p.carry:
            self._carried(p, view, seq, msg_id)
        p.owed.pop(msg_id, None)

    def close(self) -> list[Finding]:
        """End of run, once traffic is quiet: what a live member still owes
        is a finding, and so is an own multicast that a member operating in
        a view never delivered (its ``multicasts`` count is the send side;
        a member still flushing holds its multicasts back). Returns every
        finding."""
        # repro-lint: ignore[R3] attach order: the callers attach in a fixed order
        for member, p in self._processes.items():
            if member.state == STOPPED or member.stats["rejoins"] != p.rejoins:
                continue
            # repro-lint: ignore[R3] carries are kept in the old view's seq order, owed in the order they were found
            owed = [(VIRTUAL_SYNCHRONY, text) for text in p.carry.values()]
            owed += p.owed.values()
            for rule, text in owed:
                self._find(rule, f"{p.name} never delivered {text}")
            p.carry.clear()
            p.owed.clear()
            if member.state == NORMAL and member.stats["multicasts"] > p.own:
                self._find(
                    SELF_DELIVERY,
                    f"{p.name} delivered {p.own} of its "
                    f"{member.stats['multicasts']} multicasts",
                )
        return self.findings

    # -- rules -----------------------------------------------------------------

    def _filled(self, view: _View, seq: int, msg_id: MessageId, service: str) -> None:
        """A slot's first delivery: judge the skips that waited for it, and
        owe a SAFE message to every member that already left the view."""
        for p in view.holes.pop(seq, ()):
            if msg_id not in p.delivered:
                self._find(GAP_FREE, f"{p.name} skipped {view.who(seq)}")
        if service == SAFE:
            for p, reach in view.left:
                if reach <= seq and msg_id not in p.delivered:
                    p.owed.setdefault(msg_id, (SAFE_DELIVERY, view.who(seq)))

    def _leave(self, p: _Process, old: _View, new: _View) -> None:
        """*p* installs *new* from *old*, having reached ``p.reach`` in it."""
        reach = p.reach
        following = old.next_views.get(new)
        if following is None:
            old.next_views[new] = [reach, [p]]
        else:
            top, peers = following
            if reach < top:
                self._owe_carries(p, old, reach, top)
            elif reach > top:
                for q in peers:
                    self._owe_late_carries(q, old, top, reach)
                following[0] = reach
            peers.append(p)
        for seq in range(reach, old.top + 1):
            entry = old.slots.get(seq)
            if (entry is not None and entry[1][1] == SAFE
                    and entry[0] not in p.delivered and entry[0] not in p.carry):
                p.owed.setdefault(entry[0], (SAFE_DELIVERY, old.who(seq)))
        old.left.append((p, reach))

    def _owe_carries(self, p: _Process, old: _View, lo: int, hi: int) -> None:
        """*p*, installing its next view, owes what a peer delivered at
        ``old`` seqs ``lo..hi-1``: first thing, in order, if every slot is
        known; some time, if a slot nobody delivered leaves the order open."""
        slots = [old.slots.get(seq) for seq in range(lo, hi)]
        strict = None not in slots
        for seq, entry in enumerate(slots, lo):
            if entry is None or entry[0] in p.delivered:
                continue
            if strict:
                p.carry[entry[0]] = old.who(seq)
            else:
                p.owed[entry[0]] = (VIRTUAL_SYNCHRONY, old.who(seq))
        p.exact = p.exact and strict

    def _owe_late_carries(self, q: _Process, old: _View, lo: int, hi: int) -> None:
        """A peer arrived in *q*'s view having delivered ``old`` seqs
        ``lo..hi-1``, which *q* did not; *q* may already have delivered in
        its new view. Those deliveries must all have been carries, and
        come before the ones still owed."""
        slots = [old.slots.get(seq) for seq in range(lo, hi)]
        done, owed = [], []
        for seq, entry in enumerate(slots, lo):
            if entry is None:
                continue
            if entry[0] in q.current:
                done.append(seq)
            elif entry[0] not in q.delivered:
                q.owed.pop(entry[0], None)
                owed.append((seq, entry[0]))
        q.carried += len(done)
        if not owed:
            return
        if q.exact and None not in slots:
            if q.count > q.carried or (done and done[-1] > owed[0][0]):
                self._find(
                    VIRTUAL_SYNCHRONY,
                    f"{q.name} delivered {q.count - q.carried} message(s) of "
                    f"view {q.view.view_id} before carrying {old.who(owed[0][0])}",
                )
            else:
                for seq, msg_id in owed:
                    q.carry[msg_id] = old.who(seq)
                return
        for seq, msg_id in owed:
            q.owed[msg_id] = (VIRTUAL_SYNCHRONY, old.who(seq))

    def _carried(self, p: _Process, view: _View, seq: int, msg_id: MessageId) -> None:
        first = next(iter(p.carry))
        if msg_id == first:
            del p.carry[first]
            p.carried += 1
            return
        self._find(
            VIRTUAL_SYNCHRONY,
            f"{p.name} delivered {msg_id} at view {view.view_id} seq {seq} "
            f"before carrying {p.carry[first]}",
        )
        # Still owed, but the order is broken: judge it no further.
        if p.carry.pop(msg_id, None) is not None:
            p.carried += 1
        # repro-lint: ignore[R3] carries are kept in the old view's seq order
        for owed_id, text in p.carry.items():
            p.owed[owed_id] = (VIRTUAL_SYNCHRONY, text)
        p.carry.clear()
        p.exact = False

    def _own(self, p: _Process, msg_id: MessageId) -> None:
        """Own counters run contiguously from the incarnation's base: any
        skipped below this one are owed (a multicast held through a view
        change may be delivered after a younger one)."""
        p.own += 1
        counter = msg_id.counter
        expected = p.next_own
        if expected is None:
            expected = counter >> INCARNATION_SHIFT << INCARNATION_SHIFT
        for missing in range(expected, counter):
            p.owed[MessageId(p.address, missing)] = (
                SELF_DELIVERY, f"its own {MessageId(p.address, missing)}"
            )
        p.next_own = max(expected, counter + 1)

    # -- helpers ---------------------------------------------------------------

    def _view(self, view: View) -> _View:
        key = (view.view_id, view.members)
        record = self._views.get(key)
        if record is None:
            record = self._views[key] = _View(view.view_id)
        return record

    def _tag(self, name: str, service: str) -> tuple[str, str]:
        return self._tags.setdefault((name, service), (name, service))

    def _find(self, rule: str, detail: str) -> None:
        finding = Finding(rule, detail)
        self.findings.append(finding)
        if self.on_finding is not None:
            self.on_finding(finding)
