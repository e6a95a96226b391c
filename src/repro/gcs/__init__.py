"""Group communication system (GCS) — the Transis stand-in.

JOSHUA relies on Transis for exactly three interface properties (paper §3-4):

1. **reliable, totally ordered message delivery** to all group members
   (AGREED service) — user commands executed in the same order everywhere;
2. **SAFE (stable) delivery** — a message handed to the application only
   once every member has acknowledged receiving it, the building block for
   the output/launch distributed mutual exclusion;
3. **fault-tolerant, adaptive membership** — members may join, leave, or
   fail, with surviving members agreeing on the sequence of views and on
   which messages were delivered in which view (extended virtual synchrony).

This package implements those properties from scratch under the fail-stop
model:

* :class:`~repro.gcs.failure_detector.FailureDetector` — unreliable
  heartbeats + timeout suspicion.
* within-view total order — a **sequencer** engine (default; lowest-ranked
  member assigns global sequence numbers) and a **token-ring** engine
  (ablation alternative), both in :mod:`repro.gcs.ordering`.
* :class:`~repro.gcs.delivery.DeliveryQueue` — gap-free in-order delivery,
  SAFE stability tracking, duplicate suppression across view changes.
* :mod:`repro.gcs.flush` — coordinator-driven flush/view-change
  protocol: on suspicion, join or leave, members stop transmitting, exchange
  their undelivered messages, agree on a final delivery prefix, then install
  the next view.
* :class:`~repro.gcs.member.GroupMember` — the facade tying it together; the
  only class the JOSHUA layer touches.

The guarantees, each a rule of :class:`~repro.gcs.contract.GroupContract`
(the one checker: the chaos suite and the GCS tests both run it):

* *Gap-free, exactly-once delivery*: within a view a member's seqs rise
  with nothing skipped but a duplicate, and no message is delivered twice.
* *Total order*: two members that deliver at one ``(view, seq)`` deliver
  the same message.
* *Virtual synchrony*: members that install the same next view from V
  deliver the same messages of V — the closing list carries what one of
  them missed, first and in V's order.
* *SAFE*: a message delivered SAFE at any member of V is delivered by
  every member of V that installs a successor of V.
* *Self-inclusion*: a member that multicasts and survives sees its own
  messages delivered, each exactly once.
"""

from repro.gcs.view import View
from repro.gcs.messages import DeliveredMessage, MessageId
from repro.gcs.config import GroupConfig
from repro.gcs.member import GroupMember, boot_static_group
from repro.gcs.failure_detector import FailureDetector

__all__ = [
    "View",
    "MessageId",
    "DeliveredMessage",
    "GroupConfig",
    "GroupMember",
    "FailureDetector",
    "boot_static_group",
]
