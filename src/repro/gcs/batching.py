"""Outbound coalescing: one Nagle-style batcher for DATA and ORDER frames.

A head submitting a burst of commands pays the fixed per-frame overhead
(+28B datagram header plus the record framing) once per command on the
unbatched DATA path, and a sequencer once per assignment on the ORDER
path. A :class:`Coalescer` sits between the producer and the wire and
turns a burst into one frame made by its *frame builder*,
``build(view_id, entries)``. :class:`DataBatcher` is the DATA one: a
single entry is sent as a plain :class:`~repro.gcs.messages.DataMsg`
(under low offered load the wire traffic is frame-identical to an
unbatched run), more as a :class:`~repro.gcs.messages.DataBatchMsg`. The
sequencer's ORDER batch is a plain :class:`Coalescer` at a fixed window
building :class:`~repro.gcs.messages.OrderMsg` frames
(:class:`~repro.gcs.ordering.SequencerEngine`).

Flush rules (whichever fires first):

* **count budget** — the batch reaches ``max_msgs`` entries;
* **byte budget** — the encoded entry bytes reach ``max_bytes``
  (measured with the real codec, and only when a budget is set);
* **timer** — ``delay`` seconds after the batch's *first* entry (a Nagle
  window: later entries ride the same deadline, they never extend it).

The timer is **adaptive** between ``min_delay`` and ``max_delay``
(``min_delay == max_delay`` fixes it):

* a budget-triggered flush means offered load fills batches faster than
  the timer — widen the window (double, capped at ``max_delay``) so the
  next batch can grow at least as large;
* a timer flush that caught only a single entry means the window bought
  latency and amortized nothing — tighten it (halve, floored at
  ``min_delay``) so a lone command stops paying for a burst that is not
  happening;
* a timer flush with several entries keeps the current window.

View-change semantics: :meth:`~Coalescer.start_view` / :meth:`~Coalescer.stop`
*discard* pending entries without sending — by then the old view's frame
could no longer be delivered (receivers gate on view id). That is safe
because the owning member re-multicasts its undelivered commands in the
new view from ``_own_pending``; additionally the member drains both
coalescers **before** contributing to a flush (see
``GroupMember.flush_outbound``), so in the common case the entries cross
the wire in the old view and ride the closing list.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.gcs.messages import DataBatchMsg, DataMsg
from repro.gcs.view import View
from repro.net.codec import encoded_size
from repro.util.errors import GroupCommError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel

__all__ = ["DATA_BATCH_MAX_BYTES", "DATA_BATCH_MAX_MSGS", "Coalescer", "DataBatcher"]

#: A group member's count budget: a DATA batch flushes at this many entries.
DATA_BATCH_MAX_MSGS = 16
#: A group member's byte budget: near the link MTU, so one batch is about
#: one full frame.
DATA_BATCH_MAX_BYTES = 1200


class Coalescer:
    """Coalesces one producer's outbound entries into frames.

    Parameters
    ----------
    kernel:
        Simulation kernel (timer source).
    broadcast:
        ``callable(frame)`` sending a protocol message to every view member
        (the owning member's ``_bcast``).
    build:
        The frame builder, ``callable(view_id, entries) -> frame``.
    name:
        Name of the flush-timer process (one per frame kind: the
        sanitizer tells same-instant timers apart by it).
    max_delay:
        Upper bound of the adaptive Nagle window (seconds, > 0).
    min_delay:
        Lower bound the window tightens toward under low offered load
        (0 collapses to flush-on-next-tick).
    max_msgs:
        Count budget: flush as soon as the batch holds this many entries.
    max_bytes:
        Byte budget: flush once the encoded entries reach this many bytes
        (0 disables the byte trigger).
    on_flush:
        Optional ``callable(count, reason)`` observation hook invoked at
        each flush (reason in ``"count"``/``"bytes"``/``"timer"``/``"drain"``);
        wired by the member to the trace collector when one is attached.
    """

    def __init__(
        self,
        kernel: "Kernel",
        broadcast: Callable[[object], None],
        build: Callable[[int, tuple], object],
        name: str,
        *,
        max_delay: float,
        min_delay: float = 0.0,
        max_msgs: int = 16,
        max_bytes: int = 0,
        on_flush: Callable[[int, str], None] | None = None,
    ):
        if max_delay <= 0:
            raise GroupCommError(f"{type(self).__name__} needs a positive max_delay")
        if not 0 <= min_delay <= max_delay:
            raise GroupCommError("need 0 <= min_delay <= max_delay")
        if max_msgs < 2:
            raise GroupCommError("max_msgs < 2 cannot coalesce anything")
        if max_bytes < 0:
            raise GroupCommError("max_bytes must be non-negative")
        self.kernel = kernel
        self.broadcast = broadcast
        self.build = build
        self.name = name
        self.max_delay = max_delay
        self.min_delay = min_delay
        self.max_msgs = max_msgs
        self.max_bytes = max_bytes
        self.on_flush = on_flush
        self.view: View | None = None
        #: Current adaptive Nagle window (seconds).
        self.delay = max_delay
        self._entries: list[Any] = []
        self._entry_bytes = 0
        self._flusher = None
        self._generation = 0  # invalidates in-flight timers on flush/view change
        self.stats = {"submitted": 0, "flushes_count": 0, "flushes_bytes": 0,
                      "flushes_timer": 0, "flushes_drain": 0, "batched_frames": 0,
                      "single_frames": 0}

    # -- view lifecycle ----------------------------------------------------

    def start_view(self, view: View) -> None:
        """Cut over to *view*, discarding any undrained batch."""
        self.view = view
        self._reset_batch()

    def stop(self) -> None:
        self.view = None
        self._reset_batch()

    # -- submit / flush ----------------------------------------------------

    def submit(self, *entry: Any) -> None:
        """Buffer one outbound entry (the tuple of the arguments); flush
        when a budget fills."""
        if self.view is None:
            raise GroupCommError(f"{type(self).__name__}.submit with no view")
        self.stats["submitted"] += 1
        self._entries.append(entry)
        if self.max_bytes:
            self._entry_bytes += encoded_size(entry)
        if len(self._entries) >= self.max_msgs:
            self._grow_window()
            self._flush("count")
        elif self.max_bytes and self._entry_bytes >= self.max_bytes:
            self._grow_window()
            self._flush("bytes")
        elif self._flusher is None or not self._flusher.is_alive:
            self._flusher = self.kernel.spawn(
                self._flush_later(self._generation), name=self.name
            )

    def drain(self) -> tuple:
        """Remove and return every buffered entry without broadcasting
        (``GroupMember.flush_outbound`` builds, applies and sends them)."""
        if not self._entries:
            return ()
        entries = tuple(self._entries)
        self._reset_batch()
        self.stats["flushes_drain"] += 1
        if self.on_flush is not None:
            self.on_flush(len(entries), "drain")
        return entries

    def _reset_batch(self) -> None:
        self._entries.clear()
        self._entry_bytes = 0
        # A timer armed for this batch must not fire, and dropping it lets
        # the next submit arm a fresh one (a live stale timer would
        # suppress re-arming and strand the next batch).
        self._generation += 1
        self._flusher = None

    def _flush(self, reason: str) -> None:
        entries = tuple(self._entries)
        self._reset_batch()
        self.stats[f"flushes_{reason}"] += 1
        self.stats["single_frames" if len(entries) == 1 else "batched_frames"] += 1
        self.broadcast(self.build(self.view.view_id, entries))
        if self.on_flush is not None:
            self.on_flush(len(entries), reason)

    def _flush_later(self, generation: int):
        yield self.kernel.timeout(self.delay)
        # Generation — not view id — guards the timer: a flush/drain/view
        # change while we slept already disposed of this batch, and after a
        # stop()/rejoin the numeric view id can repeat.
        if self._generation != generation or self.view is None or not self._entries:
            return
        if len(self._entries) == 1:
            self._shrink_window()
        self._flush("timer")

    # -- adaptive window ---------------------------------------------------

    def _grow_window(self) -> None:
        grown = self.delay * 2 if self.delay > 0 else self.max_delay / 8
        self.delay = min(self.max_delay, grown)

    def _shrink_window(self) -> None:
        self.delay = max(self.min_delay, self.delay / 2)


def _data_frame(view_id: int, entries: tuple) -> DataMsg | DataBatchMsg:
    if len(entries) == 1:
        msg_id, service, payload = entries[0]
        return DataMsg(msg_id, view_id, service, payload)
    return DataBatchMsg(view_id, entries)


class DataBatcher(Coalescer):
    """Coalesces one member's outbound DATA multicasts, entries
    ``(msg_id, service, payload)``, into DATA frames (see the module
    docstring); the trace layer sums its :attr:`stats`."""

    def __init__(self, kernel: "Kernel", broadcast: Callable[[object], None],
                 **budgets: Any):
        super().__init__(kernel, broadcast, _data_frame, "gcs-batch-flush", **budgets)
