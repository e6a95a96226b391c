"""Exclusion detection and rejoin: the recovery side of membership.

Extracted from :class:`~repro.gcs.member.GroupMember`: everything about
*getting back in* after the group moved on without us —

* the future-view traffic buffer: ordinary protocol messages tagged with a
  view id above ours are held until that view is installed — and their
  mere existence is the exclusion signal (paper §3: a falsely-suspected
  member, e.g. an unplugged-and-replugged cable, keeps hearing traffic it
  can no longer decode);
* the exclusion verdict: future traffic outstanding for a full flush
  timeout means the group formed a view without us — dissolve and rejoin
  through whoever is talking;
* join bookkeeping: contact list, periodic ``JoinReq`` resend while
  JOINING;
* anti-entropy probes: announce our view to every address we ever shared a
  view with but is now foreign, so independently-formed groups (a healed
  partition) discover each other and merge deterministically (larger
  group wins; ties break on coordinator rank).

Like :class:`~repro.gcs.flush.FlushEngine`, the tracker operates on its
member (``m``) and owns only its slice of state; view installation stays
on the façade.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.gcs.lifecycle import NORMAL
from repro.gcs.messages import JoinReq, Probe
from repro.gcs.view import View
from repro.net.address import Address
from repro.net.codec import WIRE

if TYPE_CHECKING:  # pragma: no cover
    from repro.gcs.member import GroupMember

__all__ = ["RecoveryTracker"]


class RecoveryTracker:
    """Exclusion/rejoin engine for one :class:`GroupMember`."""

    def __init__(self, member: "GroupMember"):
        self.m = member
        #: Buffered protocol traffic for views we have not installed yet.
        self.future: dict[int, list[tuple[Address, Any]]] = {}
        self.future_first_seen: float | None = None
        self.join_contacts: list[Address] = []
        #: Every address we ever shared a view with (anti-entropy targets).
        self.known_addresses: set[Address] = set()

    # -- future-view buffering ----------------------------------------------

    def buffer_future(self, view_id: int, src: Address, msg: Any) -> None:
        self.future.setdefault(view_id, []).append((src, msg))
        if self.future_first_seen is None:
            self.future_first_seen = self.m.kernel.now

    def future_stale(self, now: float) -> bool:
        """Future traffic has been pending long enough to mean exclusion."""
        return bool(
            self.future
            and self.future_first_seen is not None
            and now - self.future_first_seen >= self.m.config.flush_timeout
        )

    def collect_buffered(self, view_id: int) -> list[tuple[Address, Any]]:
        """Traffic buffered for *view_id*, pruning everything older."""
        buffered = self.future.pop(view_id, [])
        self.future = {v: msgs for v, msgs in sorted(self.future.items()) if v > view_id}
        return buffered

    # -- join bookkeeping -----------------------------------------------------

    def send_join_requests(self) -> None:
        m = self.m
        request = JoinReq(m.address, WIRE.schema_digest())
        for contact in self.join_contacts:
            m.transport.send(contact, request)

    # -- anti-entropy / partition merge ---------------------------------------

    def note_members(self, view: View) -> None:
        self.known_addresses |= set(view.members)
        self.known_addresses.discard(self.m.address)

    def send_probes(self) -> None:
        """Anti-entropy: announce our view to known-but-foreign addresses."""
        m = self.m
        if m.view is None:
            return
        foreign = self.known_addresses - set(m.view.members)
        if not foreign:
            return
        # One probe frame to the whole foreign set. Sorted: set iteration
        # order is hash-order (varies across PYTHONHASHSEED values) and the
        # group is observable on the wire.
        m.transport.send_raw(
            tuple(sorted(foreign)),
            Probe(m.view.view_id, m.view.size, m.view.coordinator),
        )

    def handle_probe(self, src: Address, probe: Probe) -> None:
        """A foreign group announced itself (partition merge discovery)."""
        m = self.m
        if m.state != NORMAL or m.view is None:
            return
        if src in m.view.members or src in m.flush.pending_joiners:
            return
        self.known_addresses.add(src)
        join_them = probe.size > m.view.size or (
            probe.size == m.view.size and probe.coordinator < m.view.coordinator
        )
        if join_them:
            m.kernel.log.warning(
                f"gcs@{m.address}",
                f"foreign group via {src} wins merge; dissolving to rejoin",
            )
            m.stats["rejoins"] += 1
            self.become_joiner([src])

    # -- exclusion recovery ----------------------------------------------------

    def rejoin_after_exclusion(self) -> None:
        """We keep hearing traffic from views beyond ours: the group moved
        on without us (false suspicion). Re-enter through whoever is
        talking."""
        m = self.m
        contacts = sorted({src for msgs in self.future.values() for src, _m in msgs})
        if not contacts:
            return
        m.kernel.log.warning(
            f"gcs@{m.address}", f"excluded from group; rejoining via {contacts}"
        )
        m.stats["rejoins"] += 1
        self.become_joiner(contacts)

    def become_joiner(self, contacts: list[Address]) -> None:
        """Dissolve our current membership and re-enter as a fresh joiner.

        Delivered-message ids are retained (duplicate suppression must span
        the rejoin); everything view-scoped is discarded.
        """
        m = self.m
        m.dissolve_view()
        self.future.clear()
        self.future_first_seen = None
        self.join_contacts = [c for c in contacts if c != m.address]
        self.send_join_requests()
