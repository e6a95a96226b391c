"""Tunable parameters of the group communication system."""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import GroupCommError

__all__ = ["GroupConfig", "FAST_GROUP_CONFIG"]


@dataclass(frozen=True)
class GroupConfig:
    """Protocol timing and algorithm selection.

    Parameters
    ----------
    heartbeat_interval:
        Seconds between heartbeats to every peer.
    suspect_timeout:
        Silence (seconds) after which a peer is suspected failed. Must
        comfortably exceed the heartbeat interval; 3x is conventional.
    flush_timeout:
        How long a member stalled in a view change waits before restarting
        the membership protocol itself (covers coordinator death).
    retransmit_interval:
        Transport-level retransmission sweep period.
    ordering:
        ``"sequencer"`` (default) or ``"token"`` — the within-view total
        order engine (the token ring is the ablation alternative).
    sequencer_batch_delay:
        Seconds the sequencer waits to batch ORDER assignments (0 = order
        immediately). Ablation knob for latency/throughput trade-offs. A
        batch also flushes early once it holds
        :data:`~repro.gcs.ordering.SEQUENCER_BATCH_MAX` assignments.
    data_batch_delay:
        Upper bound (seconds) of the adaptive Nagle window the
        :class:`~repro.gcs.batching.DataBatcher` uses to coalesce a burst
        of outbound DATA multicasts into one
        :class:`~repro.gcs.messages.DataBatchMsg` wire frame. 0 (default)
        disables DATA batching entirely — every multicast is its own
        DataMsg frame, byte-for-byte the historical wire traffic. A batch
        also flushes early on the count and byte budgets
        :data:`~repro.gcs.batching.DATA_BATCH_MAX_MSGS` and
        :data:`~repro.gcs.batching.DATA_BATCH_MAX_BYTES`.
    data_batch_min_delay:
        Floor the adaptive window tightens toward under low offered load
        (see ``DataBatcher``); must not exceed ``data_batch_delay``.
    processing_delay:
        CPU time a member charges for each inbound protocol message, 0 to
        handle instantaneously. This models the group-communication stack's
        per-message cost on the paper's 450 MHz head nodes — the dominant
        term behind JOSHUA's latency overhead growing with head-node count
        (each added head adds DATA/ORDER/STABLE traffic every member must
        chew through).
    """

    #: Identity of the ordering group this configuration describes. A
    #: sharded deployment runs several independent groups over the same
    #: heads; each shard's members bind a dedicated per-shard port (base
    #: GCS port + group_id), so frames from different shards can never
    #: cross-deliver. The id also rotates the sequencer: shard *k* is
    #: sequenced by the member of rank ``k % view.size``, spreading
    #: ordering load across the shared heads. 0 (default) reproduces the
    #: single-group deployment exactly — rank 0 is the coordinator.
    group_id: int = 0
    #: Total number of shard groups in the deployment this group belongs
    #: to. Purely descriptive — the protocol never reads it — but the
    #: observability layer uses ``shard_count > 1`` to decide whether GCS
    #: spans/metrics should carry a ``shard=<group_id>`` label, so a
    #: single-group run stays label-identical to the historical output.
    shard_count: int = 1
    heartbeat_interval: float = 0.25
    suspect_timeout: float = 0.75
    flush_timeout: float = 1.0
    retransmit_interval: float = 0.05
    ordering: str = "sequencer"
    sequencer_batch_delay: float = 0.0
    data_batch_delay: float = 0.0
    data_batch_min_delay: float = 0.0
    processing_delay: float = 0.0
    #: Deferred-acknowledgement model for SAFE stability: a member of rank r
    #: (r = 0 for the lowest-ranked) waits ``stable_ack_base + r *
    #: stable_ack_slot`` before broadcasting its cumulative STABLE ack, when
    #: the view has more than one member. Transis-era stacks deferred and
    #: staggered acknowledgements rather than blasting them instantly; the
    #: effect is that SAFE delivery waits ~one slot per member — the linear
    #: per-head latency growth Figure 10 measures. Defaults 0 (immediate).
    stable_ack_base: float = 0.0
    stable_ack_slot: float = 0.0
    #: Seconds between payload garbage-collection sweeps (0 disables).
    #: Releases payloads that are globally stable and locally delivered,
    #: bounding a long-lived view's memory by its unstable window — the
    #: hygiene whose absence the paper suspects crashed Transis after
    #: "3-5 days of excessive operation".
    gc_interval: float = 5.0

    def __post_init__(self):
        if self.group_id < 0:
            raise GroupCommError("group_id must be non-negative")
        if self.shard_count < 1:
            raise GroupCommError("shard_count must be at least 1")
        if self.heartbeat_interval <= 0:
            raise GroupCommError("heartbeat_interval must be positive")
        if self.suspect_timeout <= self.heartbeat_interval:
            raise GroupCommError(
                "suspect_timeout must exceed heartbeat_interval "
                f"({self.suspect_timeout} <= {self.heartbeat_interval})"
            )
        if self.flush_timeout <= 0 or self.retransmit_interval <= 0:
            raise GroupCommError("timeouts must be positive")
        if self.ordering not in ("sequencer", "token"):
            raise GroupCommError(f"unknown ordering engine {self.ordering!r}")
        if self.sequencer_batch_delay < 0:
            raise GroupCommError("sequencer_batch_delay must be non-negative")
        if self.data_batch_delay < 0:
            raise GroupCommError("data_batch_delay must be non-negative")
        if not 0 <= self.data_batch_min_delay <= max(self.data_batch_delay, 0):
            raise GroupCommError(
                "need 0 <= data_batch_min_delay <= data_batch_delay"
            )
        if self.processing_delay < 0:
            raise GroupCommError("processing_delay must be non-negative")
        if self.stable_ack_base < 0 or self.stable_ack_slot < 0:
            raise GroupCommError("stable ack delays must be non-negative")
        if self.gc_interval < 0:
            raise GroupCommError("gc_interval must be non-negative")


#: Fast protocol timings: failure detection and the view change it causes
#: finish within a fraction of a simulated second. The integration tests,
#: the wire-baseline scenarios, the PVFS MDS and every experiment that is
#: not reproducing the paper's calibrated latencies run under these.
FAST_GROUP_CONFIG = GroupConfig(
    heartbeat_interval=0.1,
    suspect_timeout=0.35,
    flush_timeout=0.8,
    retransmit_interval=0.05,
)
