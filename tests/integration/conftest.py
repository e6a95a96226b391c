"""Shared helpers for the JOSHUA integration tests.

The paper's functional tests (§5) drive up to 4 head nodes and 2 compute
nodes through normal operation, single and multiple simultaneous failures,
joins and voluntary leaves. These fixtures build that testbed with fast
protocol timings so each scenario completes in a fraction of a simulated
minute.
"""

import pytest

from repro.cluster import Cluster
from repro.gcs.config import FAST_GROUP_CONFIG as FAST_GROUP
from repro.joshua import build_joshua_stack


def make_stack(heads=2, computes=2, seed=11, state_transfer="replay", shards=1,
               **cluster_kwargs):
    cluster = Cluster(head_count=heads, compute_count=computes, seed=seed,
                      login_node=True, **cluster_kwargs)
    stack = build_joshua_stack(
        cluster, group_config=FAST_GROUP, state_transfer=state_transfer,
        shards=shards,
    )
    return stack


def drive(stack, coroutine):
    """Run a client coroutine to completion; return its result."""
    process = stack.cluster.kernel.spawn(coroutine)
    return stack.cluster.run(until=process)


def settle(stack, seconds=0.5):
    stack.cluster.run(until=stack.cluster.kernel.now + seconds)


def total_runs(stack):
    return sum(stack.mom(c.name).stats["runs"] for c in stack.cluster.computes)


@pytest.fixture
def stack():
    return make_stack()
