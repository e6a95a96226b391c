"""Ablation studies on the design choices DESIGN.md calls out.

Four sweeps, each isolating one mechanism:

* **ordering engine** — sequencer vs. token ring: multicast delivery
  latency as the group grows (the sequencer centralises ordering work; the
  token spreads it at the cost of rotation latency);
* **sequencer batching** — ORDER-message batching delay vs. burst
  delivery time (classic latency/throughput trade);
* **failure detection** — suspect timeout vs. time-to-new-view after a
  crash (the knob behind "how long does a membership change take", which
  bounds JOSHUA's window of degraded liveness for SAFE traffic);
* **stability model** — the deferred-ack slot vs. jsub latency, showing
  how much of Figure 10's per-head growth the calibrated ack model
  contributes.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster.cluster import Cluster
from repro.gcs.config import FAST_GROUP_CONFIG, GroupConfig
from repro.gcs.member import GroupMember, boot_static_group
from repro.gcs.messages import SAFE
from repro.joshua.config import JOSHUA_GROUP_CONFIG
from repro.joshua.deploy import build_joshua_stack
from repro.net.network import Network
from repro.sim.kernel import Kernel

__all__ = [
    "ordering_engine_latency",
    "sequencer_batching",
    "failure_detection_sweep",
    "stable_slot_sweep",
]

GCS_PORT = 9

#: The sweeps' points: group sizes of the ordering-engine comparison, ORDER
#: batching delays, and deferred-ack slots (the calibrated one included).
MAX_HEADS = 4
BATCH_DELAYS = (0.0, 0.005, 0.02, 0.05)
SLOTS = (0.0, 0.01, JOSHUA_GROUP_CONFIG.stable_ack_slot, 0.06)


def _group(n: int, config: GroupConfig, seed: int = 1):
    kernel = Kernel(seed=seed)
    network = Network(kernel, shared_medium=False)
    delivered: dict[str, list] = {}
    members: dict[str, GroupMember] = {}
    for i in range(n):
        name = f"n{i}"
        network.register_node(name)
        delivered[name] = []
        members[name] = GroupMember(
            network.bind(name, GCS_PORT),
            config,
            on_deliver=lambda m, nm=name: delivered[nm].append((kernel.now, m)),
        )
    boot_static_group(list(members.values()))
    return kernel, network, members, delivered


def _multicast_latency(n: int, config: GroupConfig, *, service: str, trials: int = 20) -> float:
    """Mean time from multicast to delivery at the sender."""
    kernel, _net, members, delivered = _group(n, config)
    sender = members["n0"]
    kernel.run(until=0.5)
    total = 0.0
    for trial in range(trials):
        start = kernel.now
        count_before = len(delivered["n0"])
        sender.multicast(trial, service=service)
        while len(delivered["n0"]) == count_before:
            kernel.run(until=kernel.now + 0.02)
        total += delivered["n0"][-1][0] - start
    return total / trials


def ordering_engine_latency(*, trials: int = 20) -> list[dict]:
    """Sequencer vs. token-ring AGREED delivery latency by group size."""
    rows = []
    for heads in range(1, MAX_HEADS + 1):
        row: dict = {"heads": heads}
        for engine in ("sequencer", "token"):
            config = replace(FAST_GROUP_CONFIG, ordering=engine)
            latency = _multicast_latency(heads, config, service="agreed", trials=trials)
            row[f"{engine}_ms"] = round(latency * 1000, 2)
        rows.append(row)
    return rows


def sequencer_batching() -> list[dict]:
    """ORDER batching delay vs. time to deliver a burst of multicasts."""
    burst = 50
    rows = []
    for delay in BATCH_DELAYS:
        config = replace(FAST_GROUP_CONFIG, sequencer_batch_delay=delay)
        kernel, _net, members, delivered = _group(3, config)
        kernel.run(until=0.5)
        start = kernel.now
        for index in range(burst):
            members["n0"].multicast(index)
        while len(delivered["n2"]) < burst:
            kernel.run(until=kernel.now + 0.05)
        elapsed = delivered["n2"][-1][0] - start
        rows.append(
            {
                "batch_delay_ms": delay * 1000,
                "burst_time_ms": round(elapsed * 1000, 2),
                "per_msg_ms": round(elapsed / burst * 1000, 3),
            }
        )
    return rows


def failure_detection_sweep() -> list[dict]:
    """Suspect timeout vs. time from crash to the survivors' new view."""
    rows = []
    for timeout in (0.2, 0.5, 1.0, 2.0):
        config = GroupConfig(
            heartbeat_interval=timeout / 4,
            suspect_timeout=timeout,
            flush_timeout=max(0.5, timeout),
            retransmit_interval=0.05,
        )
        kernel, network, members, _delivered = _group(3, config, seed=3)
        views: list[float] = []
        members["n1"].on_view = lambda v: views.append(kernel.now)
        kernel.run(until=1.0 + timeout * 2)
        crash_time = kernel.now
        members["n0"].stop()
        network.set_node_up("n0", False)
        kernel.run(until=crash_time + timeout * 6 + 5.0)
        new_views = [t for t in views if t > crash_time]
        rows.append(
            {
                "suspect_timeout_s": timeout,
                "view_change_s": round(new_views[0] - crash_time, 3) if new_views else None,
            }
        )
    return rows


def stable_slot_sweep() -> list[dict]:
    """Deferred-ack slot vs. end-to-end jsub latency (Figure 10's knob), on
    three heads."""
    rows = []
    for slot in SLOTS:
        config = replace(JOSHUA_GROUP_CONFIG, stable_ack_slot=slot)
        cluster = Cluster(head_count=3, compute_count=2, seed=1)
        stack = build_joshua_stack(cluster, group_config=config)
        cluster.run(until=1.0)
        client = stack.client(node="head0", prefer="head0")
        kernel = cluster.kernel
        latencies = []
        for index in range(5):
            start = kernel.now
            process = kernel.spawn(client.jsub(name=f"s{index}", walltime=10_000.0))
            cluster.run(until=process)
            latencies.append(kernel.now - start)
        rows.append(
            {
                "slot_ms": slot * 1000,
                "jsub_ms": round(1000 * sum(latencies) / len(latencies), 1),
            }
        )
    return rows
