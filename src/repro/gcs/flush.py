"""The flush/epoch/NewView state machine (membership-change protocol).

Extracted from :class:`~repro.gcs.member.GroupMember`: everything between a
membership trigger (suspicion, join request, leave request) and the
installation of the next view lives here —

* the *trigger sets* (pending joiners/leavers, re-admitting incarnations,
  manually-suspected flush non-responders);
* initiator election (lowest-ranked unsuspected member of the view);
* the flush conversation: ``FlushReq(epoch)`` → ``FlushOk``
  reports → closing-list construction → ``NewView`` fan-out;
* the epoch total order ``(new_view_id, attempt, initiator)`` that resolves
  competing flushes: members honour only the highest epoch seen, and an
  initiator abandons its own attempt when it learns of a higher one;
* the watchdog policy for stalled flushes (suspect non-responders, retry);
* the recovery round after a whole-group failure: a returner asks for a
  running group for one ``flush_timeout``; finding none, it waits until
  every member of its last installed view has asked to join, and the
  lowest of them forms that view again (epoch attempt 0, empty closing
  list).

The engine operates *on* its :class:`~repro.gcs.member.GroupMember` (``m``):
it reads the view/queue/detector and drives ``m.state`` between NORMAL and
FLUSHING; the member façade owns delivery and view installation and calls
back into :meth:`FlushEngine.on_view_installed` when a NewView lands.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.gcs.delivery import DeliveredTracker
from repro.gcs.lifecycle import FLUSHING, NORMAL
from repro.gcs.messages import FlushOk, FlushReq, JoinReq, LeaveReq, MessageId, NewView
from repro.gcs.view import View
from repro.net.address import Address
from repro.net.codec import WIRE
from repro.util.errors import GroupCommError

if TYPE_CHECKING:  # pragma: no cover
    from repro.gcs.member import GroupMember

__all__ = ["FlushEngine", "FlushAttempt"]


class FlushAttempt:
    """Initiator-side bookkeeping for one flush epoch."""

    def __init__(self, epoch: tuple, proposed: tuple[Address, ...], started_at: float):
        self.epoch = epoch
        self.proposed = proposed
        self.replies: dict[Address, FlushOk] = {}
        self.started_at = started_at

    @property
    def complete(self) -> bool:
        return set(self.replies) >= set(self.proposed)


class FlushEngine:
    """Membership-change engine for one :class:`GroupMember`."""

    def __init__(self, member: "GroupMember"):
        self.m = member
        #: Addresses asking to be merged into the group.
        self.pending_joiners: set[Address] = set()
        #: Current members that announced a voluntary departure.
        self.pending_leavers: set[Address] = set()
        #: Current-view addresses that announced a fresh incarnation (a
        #: restarted process re-using its address); they need a view change
        #: to be re-admitted with clean protocol state.
        self.rejoining: set[Address] = set()
        #: Non-responders manually suspected by a timed-out flush attempt.
        self.extra_suspects: set[Address] = set()
        #: Highest flush epoch promised so far.
        self.max_epoch: tuple | None = None
        self._attempt_counter = 0
        #: Our own in-flight attempt (initiator side), if any.
        self.attempt: FlushAttempt | None = None
        #: When we entered FLUSHING (watchdog timeout reference point).
        self.entered_at = 0.0
        #: A returner's last installed view, ``(view_id, members)``, while it
        #: waits for that view's members to return; ``None`` otherwise.
        self.last_view: tuple[int, tuple[Address, ...]] | None = None
        #: Members of ``last_view`` heard asking to join (and ourselves).
        self.returned: set[Address] = set()
        #: Returners that proposed re-forming a view older than ours.
        self.stale: set[Address] = set()
        self._awaited: list[Address] = []
        #: Join-request rounds sent since we started waiting: no round is
        #: proposed before two (one flush_timeout), so a running group
        #: admits a returner before the returners re-form anything.
        self.asked = 0
        #: Id of the last view a recovery round installed here.
        self.recovered_view: int | None = None

    # -- membership triggers ------------------------------------------------

    def on_suspect(self, peer: Address) -> None:
        self.maybe_initiate()

    def on_join_req(self, src: Address, req: JoinReq) -> None:
        m = self.m
        if not m.in_group or m.view is None:
            if self.last_view is not None and req.schema == WIRE.schema_digest():
                self.returned.add(req.joiner)
                self.try_recovery()
            return
        if req.schema != WIRE.schema_digest():
            # One wire schema per group: a joiner on another one would
            # misread the first frame whose record changed.
            m.kernel.log.warning(
                f"gcs@{m.address}",
                f"refused join of {req.joiner}: its wire schema "
                f"{req.schema} is not the group's {WIRE.schema_digest()}",
            )
            return
        if req.joiner in m.view.members:
            # A previous incarnation of this address is still in the view;
            # its protocol state died with it. Re-admit the new incarnation
            # through a view change.
            self.rejoining.add(req.joiner)
        # The join request itself is proof of life.
        m.detector.forgive(req.joiner)
        self.pending_joiners.add(req.joiner)
        # Make sure the member who will actually coordinate hears about it.
        candidate = self.initiator_candidate()
        if candidate is not None and candidate != m.address:
            m.transport.send(candidate, req)
        self.maybe_initiate()

    def on_leave_req(self, src: Address, req: LeaveReq) -> None:
        m = self.m
        if not m.in_group or m.view is None:
            return
        if req.leaver in m.view.members:
            self.pending_leavers.add(req.leaver)
            self.maybe_initiate()

    def membership_dirty(self) -> bool:
        m = self.m
        if m.view is None:
            return False
        members = set(m.view.members)
        suspects = (m.detector.suspected | self.extra_suspects) & members
        joiners = self.pending_joiners - members
        rejoining = self.rejoining & members
        leavers = self.pending_leavers & members
        return bool(suspects or joiners or rejoining or leavers)

    def initiator_candidate(self) -> Address | None:
        m = self.m
        if m.view is None:
            return None
        bad = (
            m.detector.suspected
            | self.extra_suspects
            | self.pending_leavers
            | self.rejoining  # a fresh incarnation has no view history
        )
        live = [member for member in m.view.members if member not in bad]
        return min(live) if live else None

    def maybe_initiate(self) -> None:
        m = self.m
        if not m.in_group or m.view is None:
            return
        if not self.membership_dirty():
            return
        if self.initiator_candidate() != m.address:
            if m.state == NORMAL:
                # Remember when we started waiting for someone else's flush,
                # so the watchdog can take over if they never deliver one.
                m.state = FLUSHING
                self.entered_at = m.kernel.now
            return
        self._start_attempt()

    def _start_attempt(self) -> None:
        m = self.m
        self._attempt_counter += 1
        epoch = (m.view.view_id + 1, self._attempt_counter, m.address)
        bad = m.detector.suspected | self.extra_suspects | self.pending_leavers
        proposed = (set(m.view.members) - bad - self.rejoining) | (
            self.pending_joiners - m.detector.suspected - self.extra_suspects
        )
        proposed.add(m.address)
        proposed_tuple = tuple(sorted(proposed))
        self.attempt = FlushAttempt(epoch, proposed_tuple, m.kernel.now)
        m.state = FLUSHING
        self.entered_at = m.kernel.now
        m.stats["flushes_started"] += 1
        req = FlushReq(epoch)
        for member in proposed_tuple:
            if member == m.address:
                self.on_flush_req(m.address, req)
            else:
                m.transport.send(member, req)

    # -- recovery round (whole-group failure) --------------------------------

    def await_returners(self, view_id: int, members: tuple[Address, ...]) -> None:
        """Wait, as a joiner, for every member of our last installed view
        (*view_id*, *members*) to return before that view forms again. The
        member's watchdog counts our join-request rounds and retries."""
        self.last_view = (view_id, tuple(sorted(members)))
        self.returned = {self.m.address}
        self.stale = set()
        self._awaited = []
        self.asked = 0

    def try_recovery(self) -> None:
        """Form the last view again once all of its members have returned,
        if we have asked for a running group for one flush_timeout and are
        the lowest of them not known to hold an older view."""
        m = self.m
        view_id, last_members = self.last_view
        awaited = [a for a in last_members if a not in self.returned]
        if awaited:
            # Said once another returner is heard: a lone returner is
            # usually just rejoining a group that ran on without it.
            if awaited != self._awaited and len(self.returned) > 1:
                self._awaited = awaited
                m.kernel.log.warning(
                    f"gcs@{m.address}",
                    f"returners find no group; waiting for {awaited[0].node} "
                    f"(view {view_id}) to return",
                )
            return
        if self.asked < 2 or min(a for a in last_members if a not in self.stale) != m.address:
            return
        if (self.attempt is not None
                and m.kernel.now - self.attempt.started_at < m.config.flush_timeout):
            return
        self.attempt = FlushAttempt((view_id + 1, 0, m.address), last_members, m.kernel.now)
        m.stats["flushes_started"] += 1
        req = FlushReq(self.attempt.epoch)
        for member in last_members:
            if member == m.address:
                self.on_flush_req(m.address, req)
            else:
                m.transport.send(member, req)

    # -- flush protocol ------------------------------------------------------

    def on_flush_req(self, src: Address, req: FlushReq) -> None:
        m = self.m
        if req.epoch[1] == 0:
            # A recovery round: only for returners, and only one that
            # re-forms a view at least as recent as our own last one.
            if m.in_group:
                return
            if self.last_view is not None and req.epoch[0] <= self.last_view[0]:
                self.stale.add(req.epoch[2])
                self.try_recovery()
                return
            if self.max_epoch is not None and self.max_epoch[1] != 0:
                # A group's flush we answered that never installed here
                # (its initiator dissolved to wait too) binds us to nothing.
                self.max_epoch = None
        if self.max_epoch is not None and req.epoch < self.max_epoch:
            return  # stale attempt
        if m.view is not None and req.epoch[0] <= m.view.view_id:
            return  # requester is behind us; it will recover via rejoin
        coordinator = req.epoch[2]
        if self.max_epoch is None or req.epoch > self.max_epoch:
            self.max_epoch = req.epoch
            if self.attempt is not None and self.attempt.epoch < req.epoch:
                self.attempt = None  # our attempt was superseded
        if m.in_group:
            m.state = FLUSHING
            self.entered_at = m.kernel.now
        # Everything buffered on the outbound path (a DATA batch inside the
        # Nagle window, ORDER assignments inside the sequencer's batch
        # window) must hit our own queue *before* the report below, or the
        # view change silently drops it.
        m.flush_outbound()
        known, orderings, delivered = m.queue.flush_report()
        my_view = m.view.view_id if m.view is not None else -1
        ok = FlushOk(req.epoch, m.address, known, orderings, delivered, my_view)
        if coordinator == m.address:
            self.on_flush_ok(m.address, ok)
        else:
            m.transport.send(coordinator, ok)

    def on_flush_ok(self, src: Address, ok: FlushOk) -> None:
        flush = self.attempt
        if flush is None or ok.epoch != flush.epoch:
            return
        if ok.sender not in flush.proposed:
            return
        if ok.view_id >= flush.epoch[0]:
            # A responder already installed the view id we were about to
            # create: we missed a view entirely. Abort; the exclusion
            # recovery (future-traffic rejoin) will bring us back in sync.
            self.attempt = None
            return
        flush.replies[ok.sender] = ok
        if flush.complete:
            self._finalize(flush)

    def _closing_list(self, flush: FlushAttempt) -> tuple:
        m = self.m
        old_members = set(m.view.members) if m.view is not None else set()
        # Union of payloads anyone still holds.
        known: dict[MessageId, tuple[str, Any]] = {}
        for _sender, ok in sorted(flush.replies.items()):
            for msg_id, (service, payload) in ok.known:
                known.setdefault(msg_id, (service, payload))
        # Sequence assignments from the most-advanced responders (highest
        # installed view): their order extends every other survivor's prefix.
        best_vid = max(ok.view_id for ok in flush.replies.values())
        orderings: dict[int, MessageId] = {}
        for _sender, ok in sorted(flush.replies.items()):
            if ok.view_id != best_vid:
                continue
            for seq, msg_id in ok.orderings:
                existing = orderings.get(seq)
                if existing is not None and existing != msg_id:
                    raise GroupCommError(
                        f"flush found conflicting assignment at seq {seq}: "
                        f"{existing} vs {msg_id}"
                    )
                orderings[seq] = msg_id
        # Messages every surviving *old* member already delivered need not
        # (must not) be redelivered; fresh joiners (view_id == -1) get state
        # transfer at the application layer instead and are not asked.
        # Members lagging a view behind deliver the difference from the
        # closing list (duplicate suppression protects the advanced members).
        old_delivered = [
            DeliveredTracker(ok.delivered_runs)
            for a, ok in sorted(flush.replies.items())
            if a in old_members and ok.view_id >= 0
        ]
        ordered_ids = [mid for _s, mid in sorted(orderings.items())]
        unordered = sorted(set(known) - set(ordered_ids))
        return tuple(
            (mid, known[mid][0], known[mid][1])
            for mid in [*ordered_ids, *unordered]
            if mid in known
            and not (old_delivered and all(mid in d for d in old_delivered))
        )

    def _finalize(self, flush: FlushAttempt) -> None:
        m = self.m
        # A recovery round carries nothing over: its members' state comes
        # from their disks, and what a dissolved returner still holds
        # belongs to no view anyone else installed.
        closing = () if flush.epoch[1] == 0 else self._closing_list(flush)
        new_view = NewView(flush.epoch, flush.epoch[0], flush.proposed, closing)
        for member in flush.proposed:
            if member == m.address:
                self.on_new_view(m.address, new_view)
            else:
                m.transport.send(member, new_view)

    def on_new_view(self, src: Address, nv: NewView) -> None:
        m = self.m
        if self.max_epoch is not None and nv.epoch < self.max_epoch:
            return  # superseded by a newer flush we already promised
        if m.view is not None and nv.view_id <= m.view.view_id:
            return
        if m.address not in nv.members:
            return  # shouldn't happen (coordinator only sends to members)
        if nv.epoch[1] == 0 and m.in_group:
            return  # a recovery round is for returners only
        self.max_epoch = max(self.max_epoch or nv.epoch, nv.epoch)
        view = View(nv.view_id, tuple(sorted(nv.members)))
        if nv.epoch[1] == 0:
            self.recovered_view = view.view_id
        m.install_view(view, nv.closing)

    # -- lifecycle hooks -----------------------------------------------------

    def on_view_installed(self, view: View) -> None:
        """Reconcile trigger sets with the membership that actually landed."""
        members = set(view.members)
        self.extra_suspects -= members
        self.pending_joiners -= members
        # Any rejoin concern is resolved by this installation one way or the
        # other; a racing rejoin will resend its JoinReq on its watchdog.
        self.rejoining.clear()
        self.pending_leavers &= members
        self.attempt = None
        self._attempt_counter = 0
        self.last_view = None

    def on_watchdog_timeout(self, now: float) -> None:
        """FLUSHING for a full flush_timeout without a view: recover."""
        m = self.m
        self.entered_at = now
        if self.attempt is not None:
            # Our own attempt stalled: suspect the non-responders and retry
            # without them.
            missing = set(self.attempt.proposed) - set(self.attempt.replies)
            missing.discard(m.address)
            self.extra_suspects |= missing
            self.pending_joiners -= missing
            self.rejoining -= missing
            self.attempt = None
        self.maybe_initiate()
        # If after re-evaluation we are not the initiator and nothing is
        # dirty anymore, fall back to normal.
        if not self.membership_dirty() and self.attempt is None:
            m.state = NORMAL

    def reset(self) -> None:
        """Discard all view-scoped flush state (used when dissolving
        membership to rejoin as fresh — see RecoveryTracker.become_joiner)."""
        self.attempt = None
        self.max_epoch = None
        self._attempt_counter = 0
        self.pending_joiners.clear()
        self.pending_leavers.clear()
        self.rejoining.clear()
        self.extra_suspects.clear()
