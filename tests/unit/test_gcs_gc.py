"""Tests for GCS payload garbage collection (long-run memory hygiene)."""

import pytest

from repro.gcs import GroupConfig, GroupMember, boot_static_group
from repro.gcs.delivery import DeliveryQueue
from repro.gcs.messages import AGREED, DataMsg, MessageId
from repro.gcs.view import View
from repro.net import Address, Network
from repro.sim import Kernel


def addr(i):
    return Address(f"n{i}", 9)


class TestQueueGC:
    def make(self):
        queue = DeliveryQueue(addr(1))
        queue.start_view(View(1, (addr(1), addr(2))), ())
        return queue

    def deliver(self, queue, sender, counter, seq):
        data = DataMsg(MessageId(addr(sender), counter), 1, AGREED, "x" * 100)
        queue.add_data(data)
        queue.add_assignments([(seq, data.msg_id)])
        queue.pop_deliverable()
        return data.msg_id

    def test_gc_releases_stable_delivered_payloads(self):
        queue = self.make()
        for i in range(5):
            self.deliver(queue, 1, i, i)
        assert queue.payload_count() == 5
        assert queue.gc() == 0  # nothing stable yet
        queue.record_stable(addr(1), 4)
        queue.record_stable(addr(2), 4)
        assert queue.gc() == 5
        assert queue.payload_count() == 0

    def test_gc_respects_stability_frontier(self):
        queue = self.make()
        for i in range(5):
            self.deliver(queue, 1, i, i)
        queue.record_stable(addr(1), 4)
        queue.record_stable(addr(2), 1)  # peer only holds through seq 1
        assert queue.gc() == 2
        assert queue.payload_count() == 3

    def test_gc_idempotent_and_incremental(self):
        queue = self.make()
        for i in range(3):
            self.deliver(queue, 1, i, i)
        queue.record_stable(addr(1), 2)
        queue.record_stable(addr(2), 2)
        assert queue.gc() == 3
        assert queue.gc() == 0
        # New traffic after a sweep is collected by the next sweep.
        self.deliver(queue, 1, 3, 3)
        queue.record_stable(addr(1), 3)
        queue.record_stable(addr(2), 3)
        assert queue.gc() == 1

    def test_flush_report_excludes_collected_payloads(self):
        queue = self.make()
        self.deliver(queue, 1, 0, 0)
        queue.record_stable(addr(1), 0)
        queue.record_stable(addr(2), 0)
        queue.gc()
        known, orderings, delivered = queue.flush_report()
        assert known == ()  # payload released...
        assert len(orderings) == 1  # ...but the ordering record remains
        assert len(delivered) == 1  # ...and so does the dedup id


class TestMemberGC:
    def test_long_run_memory_bounded(self):
        """The scenario that killed Transis: days of sustained traffic.
        With GC, the payload store stays bounded by the unstable window."""
        config = GroupConfig(
            heartbeat_interval=0.1, suspect_timeout=0.35,
            flush_timeout=0.8, retransmit_interval=0.05,
            gc_interval=1.0,
        )
        kernel = Kernel(seed=1)
        network = Network(kernel, shared_medium=False)
        members = []
        for i in range(3):
            name = f"n{i}"
            network.register_node(name)
            members.append(GroupMember(network.bind(name, 9), config))
        boot_static_group(members)

        def traffic():
            for burst in range(40):
                for index in range(10):
                    members[index % 3].multicast(f"payload-{burst}-{index}")
                yield kernel.timeout(2.0)

        process = kernel.spawn(traffic())
        kernel.run(until=process)
        kernel.run(until=kernel.now + 5.0)
        for member in members:
            assert member.stats["delivered"] == 400
            # 400 messages flowed; far fewer payloads are resident.
            assert member.queue.payload_count() < 50
            assert member.stats.get("gc_released", 0) > 300

    def test_gc_disabled_retains_everything(self):
        config = GroupConfig(
            heartbeat_interval=0.1, suspect_timeout=0.35,
            flush_timeout=0.8, retransmit_interval=0.05,
            gc_interval=0.0,
        )
        kernel = Kernel(seed=1)
        network = Network(kernel, shared_medium=False)
        network.register_node("n0")
        member = GroupMember(network.bind("n0", 9), config)
        member.boot([Address("n0", 9)])
        for i in range(20):
            member.multicast(i)
        kernel.run(until=30.0)
        assert member.queue.payload_count() == 20
