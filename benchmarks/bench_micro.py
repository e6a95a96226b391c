"""Micro-benchmarks: substrate performance regression guards.

These time the simulator itself (wall-clock), not simulated quantities:
how fast the DES kernel processes events, how fast the GCS pushes
multicasts through, how long a full Figure-10-style scenario takes to
simulate. They keep the reproduction usable — the paper-scale experiments
should stay interactive.
"""

from repro.cluster.cluster import Cluster
from repro.gcs.config import FAST_GROUP_CONFIG
from repro.gcs.member import GroupMember, boot_static_group
from repro.joshua.deploy import build_joshua_stack
from repro.net.network import Network
from repro.sim.kernel import Kernel


def test_kernel_event_throughput(benchmark):
    """Raw DES kernel: schedule and process a large timeout cascade."""

    def run():
        kernel = Kernel()

        def chain(k, remaining):
            while remaining:
                yield k.timeout(1.0)
                remaining -= 1

        for _ in range(10):
            kernel.spawn(chain(kernel, 1000))
        kernel.run()
        return kernel.processed_events

    events = benchmark(run)
    assert events >= 10_000


def test_gcs_multicast_throughput(benchmark):
    """3-member group delivering a 200-message burst."""

    def run():
        kernel = Kernel(seed=1)
        network = Network(kernel, shared_medium=False)
        delivered = []
        members = []
        for i in range(3):
            name = f"n{i}"
            network.register_node(name)
            members.append(
                GroupMember(
                    network.bind(name, 9), FAST_GROUP_CONFIG,
                    on_deliver=delivered.append if i == 0 else None,
                )
            )
        boot_static_group(members)
        for index in range(200):
            members[index % 3].multicast(index)
        kernel.run(until=10.0)
        return len(delivered)

    count = benchmark(run)
    assert count == 200


def test_joshua_submission_scenario(benchmark):
    """Whole-stack scenario: 2 heads, 10 submissions, jobs complete."""

    def run():
        cluster = Cluster(head_count=2, compute_count=2, seed=1)
        stack = build_joshua_stack(cluster)
        client = stack.client(node="head0", prefer="head0")
        kernel = cluster.kernel

        def burst():
            for index in range(10):
                yield from client.jsub(name=f"b{index}", walltime=1.0)

        process = kernel.spawn(burst())
        cluster.run(until=process)
        cluster.run(until=60.0)
        return stack.pbs("head0").stats["completed"]

    completed = benchmark(run)
    assert completed == 10
