"""Batched and unbatched DATA paths are observationally equivalent.

The same scripted scenario runs twice — ``data_batch_delay=0`` (every
multicast its own DataMsg frame, the historical wire traffic) vs. the
adaptive batcher coalescing bursts into DataBatchMsg frames — and the
application-visible outcome must match:

* every surviving sender's commands are delivered exactly once by every
  surviving member (none lost in a Nagle window, none duplicated by the
  flush recut);
* each sender's commands appear in submission order (sender FIFO);
* within each run, all members agree on one total order;
* with a single sender the total order *is* the FIFO order, so the
  delivered payload sequence is required to be identical across modes.

Across modes with concurrent senders the interleaving may legitimately
differ (coalescing changes arrival times at the sequencer — that is the
point); the delivered *set* and the per-sender projections may not.

Scenarios cover normal operation, a membership change (crash mid-burst)
and a partition that excises one member, each across several seeds.
"""

import pytest

from repro.gcs import GroupConfig, GroupMember, boot_static_group
from repro.net import Network
from repro.sim import Kernel

GCS_PORT = 9

FAST = dict(
    heartbeat_interval=0.05,
    suspect_timeout=0.16,
    flush_timeout=0.3,
    retransmit_interval=0.02,
)

UNBATCHED = GroupConfig(**FAST)
#: The normal burst fills a batch to the count budget (DATA_BATCH_MAX_MSGS)
#: inside one Nagle window, and its tail leaves on the timer.
BATCHED = GroupConfig(
    **FAST,
    data_batch_delay=0.01,
    data_batch_min_delay=0.001,
)


class Run:
    def __init__(self, n, config, seed):
        self.kernel = Kernel(seed=seed)
        self.net = Network(self.kernel, shared_medium=False)
        self.members = {}
        self.delivered = {}
        for i in range(n):
            name = f"n{i}"
            self.net.register_node(name)
            self.delivered[name] = []
            self.members[name] = GroupMember(
                self.net.bind(name, GCS_PORT),
                config,
                on_deliver=lambda m, nm=name: self.delivered[nm].append(m),
            )
        boot_static_group(list(self.members.values()))

    def crash(self, name):
        self.members[name].stop()
        self.net.set_node_up(name, False)

    def payloads(self, name):
        return [m.payload for m in self.delivered[name]]

    def sender_projection(self, name, sender):
        return [m.payload for m in self.delivered[name] if m.sender.node == sender]


def assert_equivalent(runs, survivors, senders, sent):
    """Cross-mode and within-run invariants for two finished runs."""
    for run in runs:
        for name in survivors:
            payloads = run.payloads(name)
            # Exactly-once delivery of every surviving sender's command.
            for payload in sent:
                assert payloads.count(payload) == 1, (name, payload)
            # Sender FIFO.
            for sender in senders:
                proj = run.sender_projection(name, sender)
                assert proj == sorted(proj, key=lambda p: p[1])
        # Agreement: one total order within the run.
        seqs = [[m.msg_id for m in run.delivered[name]] for name in survivors]
        for i in range(len(seqs)):
            for j in range(i + 1, len(seqs)):
                a, b = seqs[i], seqs[j]
                short = min(len(a), len(b))
                assert a[:short] == b[:short]
    # Cross-mode: identical delivered sets at every survivor.
    for name in survivors:
        assert set(runs[0].payloads(name)) == set(runs[1].payloads(name))
        # ... and identical per-sender orderings.
        for sender in senders:
            assert runs[0].sender_projection(name, sender) == runs[1].sender_projection(
                name, sender
            )


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_normal_burst_equivalent(seed):
    sent = []
    runs = []
    for config in (UNBATCHED, BATCHED):
        run = Run(3, config, seed)
        run.kernel.run(until=0.5)

        def driver(run=run):
            for k in range(20):
                run.members["n1"].multicast(("n1", k))
                run.members["n2"].multicast(("n2", k))
                if k % 6 == 5:
                    yield run.kernel.timeout(0.004)

        run.kernel.spawn(driver())
        run.kernel.run(until=3.0)
        runs.append(run)
    sent = [(s, k) for s in ("n1", "n2") for k in range(20)]
    assert_equivalent(runs, ["n0", "n1", "n2"], ["n1", "n2"], sent)


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_membership_change_mid_burst_equivalent(seed):
    runs = []
    for config in (UNBATCHED, BATCHED):
        run = Run(4, config, seed)
        run.kernel.run(until=0.5)

        def driver(run=run):
            for k in range(6):
                run.members["n1"].multicast(("n1", k))
                run.members["n2"].multicast(("n2", k))
            yield run.kernel.timeout(0.002)
            run.crash("n0")  # the sequencer, mid-burst
            yield run.kernel.timeout(1.5)
            for k in range(6, 10):
                run.members["n1"].multicast(("n1", k))

        run.kernel.spawn(driver())
        run.kernel.run(until=8.0)
        runs.append(run)
    sent = [("n1", k) for k in range(10)] + [("n2", k) for k in range(6)]
    assert_equivalent(runs, ["n1", "n2", "n3"], ["n1", "n2"], sent)


@pytest.mark.parametrize("seed", [5, 17])
def test_partition_equivalent(seed):
    runs = []
    for config in (UNBATCHED, BATCHED):
        run = Run(3, config, seed)
        run.kernel.run(until=0.5)

        def driver(run=run):
            for k in range(5):
                run.members["n1"].multicast(("n1", k))
            yield run.kernel.timeout(0.002)
            # n2 falls off the LAN mid-burst; the majority side continues.
            run.net.partitions.set_partitions([["n0", "n1"], ["n2"]])
            yield run.kernel.timeout(1.5)
            for k in range(5, 10):
                run.members["n1"].multicast(("n1", k))

        run.kernel.spawn(driver())
        run.kernel.run(until=8.0)
        runs.append(run)
    sent = [("n1", k) for k in range(10)]
    assert_equivalent(runs, ["n0", "n1"], ["n1"], sent)
    # Single sender: the total order is the sender's FIFO order, so the
    # delivered sequence itself must be identical across modes.
    for name in ("n0", "n1"):
        assert runs[0].payloads(name) == runs[1].payloads(name)
