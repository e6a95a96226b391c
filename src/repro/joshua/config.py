"""JOSHUA timing calibration.

Two groups of constants:

* :class:`JoshuaTimes` — CPU costs of the joshua daemon itself (command
  receipt/relay on a 450 MHz head node).
* :data:`JOSHUA_GROUP_CONFIG` — the group-communication configuration used
  in deployments, including the Transis-era per-message processing cost and
  the deferred/staggered stability-acknowledgement model. Together with
  :data:`repro.pbs.service_times.ERA_2006` these put the reproduction's
  Figure 10 latencies in the right regime: ~36 ms JOSHUA overhead on one
  head (on-node communication), a large jump when going off-node, then
  roughly +35–40 ms per additional head (see EXPERIMENTS.md for measured vs
  paper). ``stable_ack_base``/``stable_ack_slot`` are the fitted pair: a
  deferred ack that would repeat an earlier one is not sent
  (``GroupMember._broadcast_stable``), and the pair was fitted with that
  rule in place, so the 2-, 3- and 4-head rows sit at 0.97–1.03 of the
  paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gcs.config import GroupConfig

__all__ = ["JoshuaTimes", "ERA_2006_JOSHUA", "JOSHUA_GROUP_CONFIG"]


@dataclass(frozen=True)
class JoshuaTimes:
    """Processing costs (seconds) of the joshua daemon."""

    #: Receiving/validating a client command before multicasting it.
    cmd_receive: float = 0.002
    #: Relaying output back to the user after local execution.
    cmd_reply: float = 0.002
    #: Handling a jmutex/jstarted/jdone request from a mom.
    mutex_process: float = 0.002
    #: How long a read-your-writes ``jstat`` waits for the local replica to
    #: catch up to the client's floor before falling back to the ordered
    #: path (PROTOCOLS.md §12). Generous versus normal apply latency, small
    #: versus the client RPC timeout so the fallback still answers in time.
    read_catchup_timeout: float = 0.5
    #: Single-threaded occupancy of one local-replica status answer: the
    #: joshua daemon and its local PBS server are both single-threaded
    #: processes, so a head answers local reads serially — per-head read
    #: capacity is ``1 / read_service``, which is what the read-scaling
    #: bench measures. Roughly the era's qstat handling plus the daemon's
    #: receive/reply share.
    read_service: float = 0.014


ERA_2006_JOSHUA = JoshuaTimes()

#: GCS tuning for the testbed deployment. processing_delay is the per
#: protocol-message CPU cost of the Transis-era stack on the paper's
#: hardware; stable_ack_base/slot model its deferred, rank-staggered
#: acknowledgement cycle, which is what makes SAFE delivery — and therefore
#: every JOSHUA command — slower per additional head node.
JOSHUA_GROUP_CONFIG = GroupConfig(
    heartbeat_interval=0.25,
    suspect_timeout=0.75,
    flush_timeout=1.5,
    retransmit_interval=0.10,
    ordering="sequencer",
    processing_delay=0.010,
    stable_ack_base=0.098,
    stable_ack_slot=0.040,
)
