"""Shared helpers for the JOSHUA integration tests.

The paper's functional tests (§5) drive up to 4 head nodes and 2 compute
nodes through normal operation, single and multiple simultaneous failures,
joins and voluntary leaves. These fixtures build that testbed with fast
protocol timings so each scenario completes in a fraction of a simulated
minute.
"""

import os

import pytest

from repro.cluster import Cluster
from repro.gcs.config import FAST_GROUP_CONFIG as FAST_GROUP
from repro.joshua import build_joshua_stack


#: CI re-runs some modules with REPRO_SANITIZE=1: same tests, with the
#: kernel's determinism sanitizer watching (see repro.sim.sanitizer). Those
#: modules build their kernels with ``sanitize=SANITIZE`` and finish with
#: :func:`assert_sanitizer_clean`.
SANITIZE = os.environ.get("REPRO_SANITIZE", "") == "1"


def assert_sanitizer_clean(kernel):
    if kernel.sanitizer is not None:
        assert kernel.sanitizer.ambiguities == [], kernel.sanitizer.report()
        assert kernel.sanitizer.aliasing == [], kernel.sanitizer.report()


def make_stack(heads=2, computes=2, seed=11, shards=1, **cluster_kwargs):
    cluster = Cluster(head_count=heads, compute_count=computes, seed=seed,
                      login_node=True, **cluster_kwargs)
    return build_joshua_stack(cluster, group_config=FAST_GROUP, shards=shards)


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
