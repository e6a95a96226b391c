"""Wire-trace digests: the sharding refactor's behavior-preservation proof.

Runs the three baseline scenarios (normal operation, membership churn,
partition + heal) and reduces every frame the simulation puts on the wire
to one canonical line::

    <send time> <src> <dst> <encoded frame length> <payload repr>

(a frame addressed to a group — a heartbeat, a probe — is one line whose
``<dst>`` is the comma-joined sorted group: one transmission, one line).

The sha256 over those lines is the scenario's **wire digest**: two builds
with the same digest sent byte-for-byte identical traffic at identical
times. ``tests/data/wire_baseline.json`` pins the digests of the
pre-sharding build; the regression test regenerates them with ``shards=1``
and compares, proving the router/replica split is invisible on the wire
when there is only one shard (the PR-2 decomposition-proof style).

The scenario code and the wire spy (a ``Network.on_frame`` hook) live here
and nowhere else: the capture tool (``tools/capture_wire_baseline.py``), the
baseline test and the observer-passivity test
(``tests/integration/test_obs_passive.py``) all drive :func:`make_stack` /
:func:`spy_network` / :data:`SCENARIOS` / :func:`trace_record`, so they can
never drift apart.
"""

from __future__ import annotations

import hashlib

from repro.cluster.cluster import Cluster
from repro.gcs.config import FAST_GROUP_CONFIG
from repro.joshua.deploy import JoshuaStack, build_joshua_stack
from repro.net.address import dst_text
from repro.net.network import DATAGRAM_OVERHEAD

__all__ = [
    "SCENARIOS",
    "make_stack",
    "spy_network",
    "trace_record",
    "run_scenario",
    "scenario_digests",
]

_SEED = 11
_HEADS = 3
_COMPUTES = 2


def make_stack(shards: int = 1) -> JoshuaStack:
    """The testbed every scenario runs on (3 heads, 2 computes, a login
    node, seed 11, the integration tests' fast group timings)."""
    cluster = Cluster(
        head_count=_HEADS, compute_count=_COMPUTES, seed=_SEED, login_node=True
    )
    return build_joshua_stack(cluster, group_config=FAST_GROUP_CONFIG, shards=shards)


def _drive(stack: JoshuaStack, coroutine):
    process = stack.cluster.kernel.spawn(coroutine)
    return stack.cluster.run(until=process)


def spy_network(stack: JoshuaStack) -> list[str]:
    """Record every frame :meth:`Network.send` offers — the fabric's one
    entry point, group frames included — as a canonical line."""
    lines: list[str] = []

    def spy(now, src, dst, kind, size, payload):
        lines.append(
            f"{now:.9f} {src} {dst_text(dst)} "
            f"{size - DATAGRAM_OVERHEAD} {payload!r}"
        )

    stack.cluster.network.on_frame.append(spy)
    return lines


# -- scenario drivers ---------------------------------------------------------


def _scenario_normal(stack: JoshuaStack) -> None:
    client = stack.client(node="login")
    for i in range(4):
        _drive(stack, client.jsub(name=f"j{i}", walltime=2.0))
    _drive(stack, client.jstat())
    _drive(stack, client.jdel(_drive(stack, client.jsub(name="victim", walltime=900.0))))
    stack.cluster.run(until=25.0)


def _scenario_membership(stack: JoshuaStack) -> None:
    client = stack.client(node="login")
    for i in range(3):
        _drive(stack, client.jsub(name=f"m{i}", walltime=2.0))
    stack.cluster.node("head0").crash()
    stack.cluster.run(until=stack.cluster.kernel.now + 3.0)
    _drive(stack, client.jsub(name="after-crash", walltime=2.0))
    stack.cluster.node("head0").restart()
    stack.cluster.run(until=stack.cluster.kernel.now + 5.0)
    _drive(stack, client.jsub(name="after-rejoin", walltime=2.0))
    stack.cluster.run(until=40.0)


def _scenario_partitions(stack: JoshuaStack) -> None:
    client = stack.client(node="login")
    for i in range(2):
        _drive(stack, client.jsub(name=f"p{i}", walltime=2.0))
    net = stack.cluster.network
    net.partitions.set_partitions(
        [["head0", "head1", "compute0", "compute1", "login"], ["head2"]]
    )
    stack.cluster.run(until=stack.cluster.kernel.now + 4.0)
    _drive(stack, client.jsub(name="during-partition", walltime=2.0))
    net.partitions.heal_partitions()
    stack.cluster.run(until=stack.cluster.kernel.now + 10.0)
    _drive(stack, client.jsub(name="after-heal", walltime=2.0))
    stack.cluster.run(until=45.0)


SCENARIOS = {
    "normal": _scenario_normal,
    "membership": _scenario_membership,
    "partitions": _scenario_partitions,
}


def trace_record(stack: JoshuaStack, lines: list[str]) -> dict:
    """The wire digest of *lines* plus the coarse counters that aid triage
    when the digest differs (frame count narrows *where*, the clock and
    event count narrow *when*)."""
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return {
        "digest": digest,
        "frames": len(lines),
        "bytes": sum(int(line.split(" ", 4)[3]) for line in lines),
        "now": round(stack.cluster.kernel.now, 9),
        "events": stack.cluster.kernel.processed_events,
    }


def run_scenario(name: str, *, shards: int = 1) -> dict:
    """One scenario's :func:`trace_record` on a fresh stack."""
    stack = make_stack(shards)
    lines = spy_network(stack)
    SCENARIOS[name](stack)
    return trace_record(stack, lines)


def scenario_digests(*, shards: int = 1) -> dict:
    return {name: run_scenario(name, shards=shards) for name in SCENARIOS}
