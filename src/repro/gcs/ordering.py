"""Within-view total-order engines.

Two interchangeable algorithms assign global sequence numbers to DATA
messages inside one view; both produce a unique ``seq -> msg_id`` map and
broadcast it in :class:`~repro.gcs.messages.OrderMsg` frames. A view change
resets either engine — recovery of messages whose ordering was lost with a
failed sequencer/token is the membership layer's job.

**Sequencer** (default; paper-era systems like ISIS/Amoeba used this shape):
the lowest-ranked view member assigns sequence numbers to every DATA it
learns of, in arrival order, optionally batching assignments for
``sequencer_batch_delay`` seconds (flushing early once
:data:`SEQUENCER_BATCH_MAX` assignments accumulate, so a burst never waits
out the full window). The batch is the DATA path's
:class:`~repro.gcs.batching.Coalescer` at a fixed window with
:class:`~repro.gcs.messages.OrderMsg` as its frame builder. One broadcast
per multicast; latency is one hop to the sequencer plus one ordering
broadcast.

**Token ring** (ablation; Totem/Transis lineage): a token carrying
``next_seq`` circulates the ring; the holder orders *its own* pending
messages, broadcasts the assignments, and forwards the token. Latency
depends on token position (up to a full rotation), but ordering load is
spread across members — the classic latency-vs-fairness trade-off the
ablation bench quantifies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.gcs.batching import Coalescer
from repro.gcs.messages import MessageId, OrderMsg, TokenMsg
from repro.gcs.view import View
from repro.net.address import Address

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel

__all__ = ["SEQUENCER_BATCH_MAX", "SequencerEngine", "TokenRingEngine", "make_engine"]

#: Size trigger of a batching sequencer in a group: an ORDER batch flushes
#: once it holds this many assignments.
SEQUENCER_BATCH_MAX = 16


class _EngineBase:
    """Shared plumbing: who we are, current view, outbound hooks.

    ``broadcast(msg)`` sends a protocol message to every view member
    (including ourselves); ``send(dst, msg)`` is point-to-point. Both are
    provided by the owning :class:`~repro.gcs.member.GroupMember`.
    ``batcher`` is the engine's outbound ORDER coalescer, if it has one:
    it starts and stops with the view, and the member drains it as it
    enters a membership flush, so assignments already made (they advanced
    ``next_seq``) ride the flush report instead of being dropped.
    """

    batcher: Coalescer | None = None

    def __init__(
        self,
        kernel: "Kernel",
        owner: Address,
        broadcast: Callable[[object], None],
        send: Callable[[Address, object], None],
    ):
        self.kernel = kernel
        self.owner = owner
        self.broadcast = broadcast
        self.send = send
        self.view: View | None = None
        self.next_seq = 0
        #: Optional ``callable(seq, msg_id)`` invoked for each assignment
        #: this engine creates (observation only; wired by the owning
        #: member to the trace collector when one is attached).
        self.observer: Callable[[int, MessageId], None] | None = None

    def _observed(self, seq: int, msg_id: MessageId) -> None:
        if self.observer is not None:
            self.observer(seq, msg_id)

    def start_view(self, view: View, next_seq: int) -> None:
        self.view = view
        self.next_seq = next_seq
        if self.batcher is not None:
            self.batcher.start_view(view)

    def stop(self) -> None:
        self.view = None
        if self.batcher is not None:
            self.batcher.stop()

    # Hooks a concrete engine may implement:
    def on_data(self, msg_id: MessageId, *, own: bool) -> None:
        """A DATA message became known locally (own=True if we sent it)."""

    def on_token(self, src: Address, token: TokenMsg) -> None:
        """Token engine only."""


class SequencerEngine(_EngineBase):
    """One designated member assigns sequence numbers for everyone.

    The sequencer is the member of rank ``rotation % view.size``. With
    ``rotation=0`` (default) that is the lowest-ranked member — the
    coordinator, the classic single-group configuration. A sharded
    deployment passes each shard's group id as the rotation so the N
    shards hosted on the same heads elect N *different* sequencers and
    the ordering load spreads instead of piling onto one head.
    """

    def __init__(
        self, kernel, owner, broadcast, send,
        *, batch_delay: float = 0.0, rotation: int = 0,
    ):
        super().__init__(kernel, owner, broadcast, send)
        self.rotation = rotation
        self._assigned: set[MessageId] = set()
        if batch_delay > 0:
            # A fixed window (min = max), flushed early once it holds
            # SEQUENCER_BATCH_MAX assignments: a burst no longer waits out
            # the window once its amortization is already maximal.
            self.batcher = Coalescer(
                kernel, broadcast, OrderMsg, "gcs-order-flush",
                max_delay=batch_delay, min_delay=batch_delay,
                max_msgs=SEQUENCER_BATCH_MAX,
            )

    def sequencer_of(self, view: View) -> Address:
        return view.members[self.rotation % view.size]

    @property
    def is_sequencer(self) -> bool:
        return self.view is not None and self.sequencer_of(self.view) == self.owner

    def start_view(self, view: View, next_seq: int) -> None:
        super().start_view(view, next_seq)
        self._assigned.clear()

    def on_data(self, msg_id: MessageId, *, own: bool) -> None:
        if not self.is_sequencer or msg_id in self._assigned:
            return
        self._assigned.add(msg_id)
        seq = self.next_seq
        self.next_seq += 1
        self._observed(seq, msg_id)
        if self.batcher is not None:
            self.batcher.submit(seq, msg_id)
        else:
            self.broadcast(OrderMsg(self.view.view_id, ((seq, msg_id),)))


class TokenRingEngine(_EngineBase):
    """Token holder orders its own pending messages, then forwards the token.

    The coordinator regenerates the token at every view installation with
    the view's starting sequence number, so a token lost with a crashed
    holder is recovered by the view change itself.
    """

    #: Hold time of an idle token before it moves on (seconds).
    idle_delay = 0.01

    def __init__(self, kernel, owner, broadcast, send):
        super().__init__(kernel, owner, broadcast, send)
        self._pending: list[MessageId] = []
        self._generation = 0  # invalidates in-flight pass timers on view change

    def start_view(self, view: View, next_seq: int) -> None:
        super().start_view(view, next_seq)
        self._generation += 1
        # Own messages carried across a view change are re-announced via
        # on_data by the member; start with an empty pending list.
        self._pending = []
        if view.coordinator == self.owner:
            # Regenerate the token; we are its first holder.
            self.on_token(self.owner, TokenMsg(view.view_id, next_seq))

    def on_data(self, msg_id: MessageId, *, own: bool) -> None:
        if own:
            self._pending.append(msg_id)

    def on_token(self, src: Address, token: TokenMsg) -> None:
        if self.view is None or token.view_id != self.view.view_id:
            return  # stale token from a previous view
        seq = token.next_seq
        if self._pending:
            assignments = tuple((seq + i, m) for i, m in enumerate(self._pending))
            seq += len(self._pending)
            self._pending = []
            for assigned_seq, assigned_id in assignments:
                self._observed(assigned_seq, assigned_id)
            self.broadcast(OrderMsg(self.view.view_id, assignments))
            self._forward(TokenMsg(self.view.view_id, seq), delay=0.0)
        else:
            # Idle: keep circulating, but slowly, so an idle group does not
            # saturate the simulated wire.
            self._forward(TokenMsg(self.view.view_id, seq), delay=self.idle_delay)

    def _forward(self, token: TokenMsg, *, delay: float) -> None:
        view = self.view
        generation = self._generation
        successor = view.members[(view.rank_of(self.owner) + 1) % view.size]

        if delay <= 0:
            if successor == self.owner:
                self.on_token(self.owner, token)
            else:
                self.send(successor, token)
            return

        def later():
            yield self.kernel.timeout(delay)
            if self.view is not view or self._generation != generation:
                return
            if successor == self.owner:
                self.on_token(self.owner, token)
            else:
                self.send(successor, token)

        self.kernel.spawn(later(), name=f"token-pass@{self.owner}")


def make_engine(
    kind: str, kernel, owner, broadcast, send,
    *, batch_delay: float = 0.0, rotation: int = 0,
):
    """Factory selecting the ordering engine by config name.

    *rotation* spreads sequencer duty across a sharded deployment's heads
    (see :class:`SequencerEngine`). The token ring ignores it: its token
    is regenerated by the coordinator on every view change regardless, and
    ordering load is already spread around the ring.
    """
    if kind == "sequencer":
        return SequencerEngine(
            kernel, owner, broadcast, send,
            batch_delay=batch_delay, rotation=rotation,
        )
    if kind == "token":
        return TokenRingEngine(kernel, owner, broadcast, send)
    raise ValueError(f"unknown ordering engine {kind!r}")
