"""Sharding-refactor behavior preservation: ``shards=1`` is wire-identical.

The router/replica split (PROTOCOLS.md §10) must be invisible when there is
only one shard: every frame, at every timestamp, byte for byte. The pinned
digests in ``tests/data/wire_baseline.json`` were first captured from the
pre-sharding build; regenerating them through the refactored stack proves
preservation on all three baseline scenarios — normal operation, membership
churn, and partition + heal.

The file is the ``wire_baseline`` entry of ``tools/golden.py``: a
legitimate wire-protocol change runs ``python tools/golden.py update
wire_baseline`` in the same commit. Per scenario, the test below reads the
entry's run (made once per session) and compares the coarse counters
before the digest, to say where to look.
"""

import json

import pytest

import golden
from repro.analysis.wiretrace import SCENARIOS, make_stack, spy_network


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_shards1_wire_identical_to_presharding_baseline(scenario):
    pinned = golden.committed("wire_baseline")[scenario]
    fresh = json.loads(golden.produce("wire_baseline"))[scenario]
    # Compare the coarse counters first: on a digest mismatch they say
    # where to look (frame count, clock, event count) before bisecting.
    assert fresh["frames"] == pinned["frames"]
    assert fresh["bytes"] == pinned["bytes"]
    assert fresh["now"] == pinned["now"]
    assert fresh["events"] == pinned["events"]
    assert fresh["digest"] == pinned["digest"]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_spy_records_every_frame_the_fabric_counts(scenario):
    """The digest is a proof only while no class of frame can bypass the
    spy: one line per ``Network.stats["sent"]`` — group frames (heartbeats,
    probes) included, each as one line — from the moment it attaches."""
    stack = make_stack(1)
    network = stack.cluster.network
    sent_at_boot = network.stats["sent"]
    lines = spy_network(stack)
    SCENARIOS[scenario](stack)
    assert len(lines) == network.stats["sent"] - sent_at_boot
    beacons = [line for line in lines if " RawFrame(payload=Heartbeat(" in line]
    assert beacons[0].split(" ")[1:3] == ["head0:4413", "head1:4413,head2:4413"]
