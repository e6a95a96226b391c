"""Sharding-refactor behavior preservation: ``shards=1`` is wire-identical.

The router/replica split (PROTOCOLS.md §10) must be invisible when there is
only one shard: every frame, at every timestamp, byte for byte. The pinned
digests in ``tests/data/wire_baseline.json`` were captured from the
pre-sharding build (``tools/capture_wire_baseline.py``); regenerating them
here through the refactored stack proves preservation on all three baseline
scenarios — normal operation, membership churn, and partition + heal.

A legitimate wire-protocol change must recapture the baseline in the same
commit (see the capture tool's docstring).
"""

import json
import os

import pytest

from repro.analysis.wiretrace import (
    SCENARIOS,
    make_stack,
    run_scenario,
    spy_network,
)

_BASELINE = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "data", "wire_baseline.json")


def _pinned():
    with open(_BASELINE) as f:
        return json.load(f)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_shards1_wire_identical_to_presharding_baseline(scenario):
    pinned = _pinned()[scenario]
    fresh = run_scenario(scenario, shards=1)
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
