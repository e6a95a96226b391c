"""Regression: ordering/e2e delay is timed from the *original* multicast.

With ``data_batch_delay > 0`` a command sits in the DataBatcher's Nagle
window before any wire frame exists. The collector must stamp
``gcs.ordering.delay_s`` / ``gcs.e2e.delay_s`` at the ``multicast()``
call — the moment the application handed the command over — not at the
batch flush, or batching would silently *hide* the queueing delay it
introduces from every Figure-10 style latency report. These tests pin the
stamp's location by construction: under a long Nagle window the measured
delay must contain the window, and must strictly exceed the whole
unbatched delay for the identical workload.
"""

import repro.obs.collector as collector_module
from repro.gcs import GroupConfig, GroupMember, boot_static_group
from repro.gcs.messages import MessageId
from repro.net import Address, Network
from repro.obs.collector import attach_collector
from repro.sim import Kernel

GCS_PORT = 9

FAST = dict(
    heartbeat_interval=0.05,
    suspect_timeout=0.16,
    flush_timeout=0.3,
    retransmit_interval=0.02,
)

#: Nagle window far above the fast-LAN ordering round trip (~a few ms), so
#: "delay includes the window" and "delay excludes the window" are
#: unambiguously separated.
WINDOW = 0.2

#: ``run_burst``'s few short commands stay far below the count and byte
#: budgets (DATA_BATCH_MAX_MSGS / _BYTES), so only the timer flushes.
BATCHED = GroupConfig(
    **FAST,
    data_batch_delay=WINDOW,
    data_batch_min_delay=WINDOW,  # adaptive shrink off: every flush waits
)
UNBATCHED = GroupConfig(**FAST)


def run_burst(config, *, jobs=3, seed=4):
    """Boot 3 members, burst *jobs* multicasts from a non-sequencer member
    at one instant, run to quiescence; returns (collector, delivered)."""
    kernel = Kernel(seed=seed)
    network = Network(kernel, shared_medium=False)
    delivered = []
    members = {}
    for i in range(3):
        name = f"n{i}"
        network.register_node(name)
        members[name] = GroupMember(
            network.bind(name, GCS_PORT), config,
            on_deliver=delivered.append if name == "n1" else None,
        )
    collector = attach_collector(network)
    boot_static_group(list(members.values()))
    kernel.run(until=0.5)

    def burst():
        yield kernel.timeout(0.0)
        for i in range(jobs):
            members["n1"].multicast(f"cmd-{i}")

    kernel.spawn(burst())
    kernel.run(until=2.0)
    own = [m for m in delivered if m.sender.node == "n1"]
    assert len(own) == jobs, "burst did not fully deliver"
    return collector, own


def delays(collector, name):
    # gcs.ordering.delay_s is observed by whichever node first sees the
    # assignment (the sequencer, n0); gcs.e2e.delay_s at the sender (n1).
    # Either way exactly one series exists for this single-burst workload.
    [(_, hist)] = collector.registry.find(name)
    return hist


class TestBatchingAttribution:
    def test_burst_was_actually_coalesced(self):
        collector, _ = run_burst(BATCHED)
        flushes = {
            labels["reason"]: counter.value
            for labels, counter in collector.registry.find("gcs.batch.flushes")
            if labels.get("node") == "n1"
        }
        assert flushes.get("timer", 0) >= 1
        [batch_span] = [
            e for e in collector.events
            if e.kind == "gcs.batch" and e.node == "n1"
        ]
        assert batch_span.fields["count"] == 3

    def test_ordering_delay_includes_the_nagle_window(self):
        collector, _ = run_burst(BATCHED)
        hist = delays(collector, "gcs.ordering.delay_s")
        assert hist.count == 3
        # Every command in the burst waited the full window before its
        # batch even hit the wire; a flush-time stamp would report only
        # the post-flush ordering round trip (milliseconds).
        assert hist.min >= WINDOW

    def test_e2e_delay_includes_the_nagle_window(self):
        collector, _ = run_burst(BATCHED)
        hist = delays(collector, "gcs.e2e.delay_s")
        assert hist.count == 3
        assert hist.min >= WINDOW

    def test_batched_delay_dominates_whole_unbatched_delay(self):
        unbatched, _ = run_burst(UNBATCHED)
        batched, _ = run_burst(BATCHED)
        for name in ("gcs.ordering.delay_s", "gcs.e2e.delay_s"):
            assert delays(batched, name).min > delays(unbatched, name).max

    def test_mcast_span_precedes_batch_flush(self):
        collector, _ = run_burst(BATCHED)
        mcasts = [e for e in collector.events
                  if e.kind == "gcs.mcast" and e.node == "n1"]
        [flush] = [e for e in collector.events
                   if e.kind == "gcs.batch" and e.node == "n1"]
        assert len(mcasts) == 3
        for span in mcasts:
            assert flush.time - span.time >= WINDOW - 1e-9


class TestOrderedMarkIsBounded:
    """The "first ORDER already seen" mark lives in the bounded multicast
    map, so the always-on observer forgets an id's mark with its stamp."""

    @staticmethod
    def collector():
        network = Network(Kernel(seed=1), shared_medium=False)
        network.register_node("n0")
        return attach_collector(network), Address("n0", GCS_PORT)

    def test_collector_holds_at_most_the_limit_of_message_ids(self, monkeypatch):
        limit = 16
        monkeypatch.setattr(collector_module, "MCAST_MAP_LIMIT", limit)
        collector, sender = self.collector()
        for counter in range(10 * limit):
            msg_id = MessageId(sender, counter)
            collector.gcs_multicast("n0", msg_id, "agreed", "cmd")
            collector.gcs_ordered("n0", counter, msg_id)
        held = {
            key
            for container in vars(collector).values()
            if isinstance(container, (dict, set))
            for key in container if isinstance(key, MessageId)
        }
        assert 0 < len(held) <= limit
        assert delays(collector, "gcs.ordering.delay_s").count == 10 * limit

    def test_reassignment_after_a_view_change_counts_the_id_once(self):
        collector, sender = self.collector()
        msg_id = MessageId(sender, 0)
        collector.gcs_multicast("n0", msg_id, "agreed", "cmd")
        collector.gcs_ordered("n0", 0, msg_id)
        collector.gcs_ordered("n0", 5, msg_id)  # the new view's sequencer
        assert delays(collector, "gcs.ordering.delay_s").count == 1
        # An id whose multicast was never observed records no delay.
        collector.gcs_ordered("n0", 6, MessageId(sender, 1))
        assert delays(collector, "gcs.ordering.delay_s").count == 1
