"""Gap-free ordered delivery with SAFE stability tracking.

:class:`DeliveryQueue` is the per-member bookkeeping between "messages are
arriving from the wire" and "the application sees a totally ordered stream":

* DATA payloads indexed by message id;
* global sequence assignments (from the ordering engine) indexed by seq;
* a delivery cursor that advances only over *gap-free* prefixes;
* per-member cumulative stability acknowledgements, which gate SAFE
  messages: a SAFE message at seq *s* is deliverable only when **every**
  view member has acknowledged holding all messages through *s*;
* a :class:`DeliveredTracker` for duplicate suppression across view changes.

A SAFE message that is not yet stable blocks everything behind it — that is
what keeps SAFE and AGREED messages in one total order (Transis/Totem
semantics), and it is why SAFE delivery costs an extra message round trip,
visible in the paper's latency overhead per added head node.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

from repro.gcs.messages import (
    AGREED,
    SAFE,
    DataBatchMsg,
    DataMsg,
    DeliveredMessage,
    MessageId,
)
from repro.gcs.view import View
from repro.net.address import Address
from repro.util.errors import GroupCommError

__all__ = ["DeliveredTracker", "DeliveryQueue"]


class DeliveredTracker:
    """Which multicast ids were delivered, in space O(senders) not O(history).

    A sender numbers its multicasts contiguously (each incarnation from its
    own base, see ``INCARNATION_SHIFT``) and they are delivered nearly in
    that order, so per sender the set is a few *runs* of consecutive
    counters: one per incarnation seen, one more per gap — a multicast lost
    with its sender, or history from before we joined. Kept exactly (this is
    a set, not a summary) as one flat sorted list ``[lo0, hi0, lo1, hi1,
    ...]`` of half-open, non-adjacent runs per sender. :meth:`report` is that
    state as sorted ``(sender, runs)`` entries: what a ``FlushOk`` carries,
    and what the constructor rebuilds a tracker from.
    """

    def __init__(self, report: Iterable[tuple[Address, Iterable[int]]] = ()):
        self._runs: dict[Address, list[int]] = {
            sender: list(runs) for sender, runs in report
        }

    def add(self, msg_id: MessageId) -> None:
        sender, counter = msg_id
        runs = self._runs.setdefault(sender, [])
        i = bisect_right(runs, counter)
        if i % 2:
            return  # inside a run already
        joins_left = i > 0 and runs[i - 1] == counter
        joins_right = i < len(runs) and runs[i] == counter + 1
        if joins_left and joins_right:
            del runs[i - 1:i + 1]
        elif joins_left:
            runs[i - 1] = counter + 1
        elif joins_right:
            runs[i] = counter
        else:
            runs[i:i] = (counter, counter + 1)

    def __contains__(self, msg_id: MessageId) -> bool:
        # An odd number of run boundaries at or below the counter: inside.
        runs = self._runs.get(msg_id[0])
        return runs is not None and bisect_right(runs, msg_id[1]) % 2 == 1

    def __len__(self) -> int:
        """Runs held — not ids delivered."""
        return sum(len(runs) for runs in self._runs.values()) // 2

    def report(self) -> tuple[tuple[Address, tuple[int, ...]], ...]:
        return tuple(
            (sender, tuple(runs)) for sender, runs in sorted(self._runs.items())
        )


class DeliveryQueue:
    """Ordered-delivery state for one member."""

    def __init__(self, owner: Address):
        self.owner = owner
        self.view: View | None = None
        #: msg_id -> DataMsg for the current view (incl. injected closing).
        self._data: dict[MessageId, DataMsg] = {}
        #: seq -> msg_id assignments for the current view.
        self._order: dict[int, MessageId] = {}
        #: next seq the cursor will deliver.
        self._cursor = 0
        #: highest seq found agreed-ready so far in this view. Readiness of
        #: a prefix never reverts within a view — orderings are only added,
        #: and :meth:`gc` drops a payload only once its id is in
        #: ``_delivered``, which never shrinks — so the scan resumes
        #: here instead of restarting at seq 0 on every delivery.
        self._ready = -1
        #: next seq the garbage collector will consider.
        self._gc_cursor = 0
        #: per-member cumulative "I hold everything through seq" acks.
        self._stable: dict[Address, int] = {}
        #: every msg_id this member has ever delivered (any view).
        self._delivered = DeliveredTracker()

    # -- view lifecycle ------------------------------------------------------

    def start_view(self, view: View, closing: Iterable[tuple[MessageId, str, object]]) -> None:
        """Reset per-view state; inject the view-change *closing* messages as
        the pre-ordered head (seqs ``0..len(closing)-1``) of the new view."""
        self.view = view
        self._data.clear()
        self._order.clear()
        self._cursor = 0
        self._ready = -1
        self._gc_cursor = 0
        self._stable = {m: -1 for m in view.members}
        for seq, (msg_id, service, payload) in enumerate(closing):
            self._data[msg_id] = DataMsg(msg_id, view.view_id, service, payload)
            self._order[seq] = msg_id

    # -- inbound state ----------------------------------------------------------

    def add_data(self, data: DataMsg) -> bool:
        """Record a DATA message; returns True if it was new."""
        if data.msg_id in self._data:
            return False
        self._data[data.msg_id] = data
        return True

    def add_batch(self, batch: DataBatchMsg) -> list[DataMsg]:
        """Unpack a coalesced DATA batch into individual records.

        Returns the per-command :class:`DataMsg` records that were *new*
        (in batch order), so the caller can run the ordinary per-command
        path — ordering engine, stability, traces — exactly as if each had
        arrived in its own frame.
        """
        fresh: list[DataMsg] = []
        for msg_id, service, payload in batch.entries:
            data = DataMsg(msg_id, batch.view_id, service, payload)
            if self.add_data(data):
                fresh.append(data)
        return fresh

    def add_assignments(self, assignments: Iterable[tuple[int, MessageId]]) -> None:
        for seq, msg_id in assignments:
            existing = self._order.get(seq)
            if existing is not None and existing != msg_id:
                raise GroupCommError(
                    f"conflicting order assignment at seq {seq}: "
                    f"{existing} vs {msg_id} (view {self.view})"
                )
            self._order[seq] = msg_id

    def record_stable(self, member: Address, acked_through: int) -> None:
        if self.view is None or member not in self._stable:
            return
        if acked_through > self._stable[member]:
            self._stable[member] = acked_through

    # -- cursors and stability ------------------------------------------------------

    def agreed_ready_through(self) -> int:
        """Highest seq *s* such that data+order are (or were, before being
        garbage-collected post-delivery) present for all ``<= s``."""
        seq = self._ready
        while (seq + 1) in self._order:
            msg_id = self._order[seq + 1]
            if msg_id not in self._data and msg_id not in self._delivered:
                break
            seq += 1
        self._ready = seq
        return seq

    def stable_through(self) -> int:
        """Highest seq acknowledged by every view member (-1 if none)."""
        if not self._stable:
            return -1
        return min(self._stable.values())

    def pop_deliverable(self) -> list[DeliveredMessage]:
        """Advance the cursor and return newly deliverable messages.

        Messages already delivered (by id) in an earlier view are *skipped*
        (the cursor advances past them) but not returned.
        """
        if self.view is None:
            return []
        out: list[DeliveredMessage] = []
        agreed_ready = self.agreed_ready_through()
        stable = self.stable_through()
        while self._cursor <= agreed_ready:
            seq = self._cursor
            msg_id = self._order[seq]
            data = self._data[msg_id]
            if data.service == SAFE and seq > stable:
                break  # not yet stable everywhere; blocks everything behind it
            self._cursor += 1
            if msg_id in self._delivered:
                continue  # duplicate across a view change
            self._delivered.add(msg_id)
            out.append(
                DeliveredMessage(
                    msg_id=msg_id,
                    sender=msg_id.sender,
                    payload=data.payload,
                    service=data.service,
                    view_id=self.view.view_id,
                    seq=seq,
                )
            )
        return out

    def was_delivered(self, msg_id: MessageId) -> bool:
        return msg_id in self._delivered

    # -- garbage collection -----------------------------------------------------

    def gc(self) -> int:
        """Drop payloads that are globally stable and locally delivered.

        Safe because stability through seq *s* means **every** view member
        holds data+order for everything ≤ *s*: any member that still needs
        one of these messages (e.g. its delivery is blocked behind an
        unstable SAFE message) reports its own copy at the next flush, so
        the union the coordinator builds never depends on ours. Keeps a
        long-lived view's memory bounded by the unstable window instead of
        its whole history. Returns the number of payloads released.
        """
        threshold = min(self.stable_through(), self._cursor - 1)
        released = 0
        while self._gc_cursor <= threshold:
            msg_id = self._order.get(self._gc_cursor)
            if msg_id is None or msg_id not in self._delivered:
                break  # keep the prefix contiguous; retry next sweep
            if msg_id in self._data:
                del self._data[msg_id]
                released += 1
            self._gc_cursor += 1
        return released

    def payload_count(self) -> int:
        """Payloads currently held (observability for the GC tests)."""
        return len(self._data)

    def snapshot(self) -> dict:
        """Read-only queue state for trace collectors / backlog gauges."""
        return {
            "cursor": self._cursor,
            "payloads": len(self._data),
            "orderings": len(self._order),
            "stable_through": self.stable_through(),
        }

    # -- flush support -----------------------------------------------------------

    def flush_report(self) -> tuple[tuple, tuple, tuple]:
        """(known, orderings, delivered report) for a FlushOk contribution."""
        known = tuple(
            (msg_id, (data.service, data.payload))
            for msg_id, data in sorted(self._data.items())
        )
        orderings = tuple(sorted(self._order.items()))
        return known, orderings, self._delivered.report()
