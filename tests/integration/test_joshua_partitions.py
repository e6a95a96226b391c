"""JOSHUA under network partitions, and the primary-partition extension.

The paper's failure model is fail-stop (unplugged cables treated as node
death); partitions that later *heal* were out of its scope. These tests
document the behaviours: by default (paper-faithful) both sides keep
serving and merge when the network heals; with the primary-partition
extension only the majority side wins SAFE-gated operations, preventing
split-brain job launches.
"""

from dataclasses import replace

import pytest

from repro.cluster import Cluster
from repro.joshua import build_joshua_stack
from repro.pbs.job import JobState

from tests.integration.conftest import FAST_GROUP, drive, settle, total_runs


def make_partitioned_stack(primary_partition=False, seed=53):
    config = replace(FAST_GROUP, primary_partition=primary_partition)
    cluster = Cluster(head_count=3, compute_count=2, seed=seed, login_node=True)
    stack = build_joshua_stack(cluster, group_config=config)
    return cluster, stack


class TestPartitionHealing:
    def test_group_reforms_after_heal(self):
        cluster, stack = make_partitioned_stack()
        settle(stack, 1.0)
        # Isolate head2 from the other heads (compute/login still reach all).
        cluster.network.partitions.cut_link("head2", "head0")
        cluster.network.partitions.cut_link("head2", "head1")
        settle(stack, 4.0)
        assert stack.joshua("head0").group.view.size == 2
        assert stack.joshua("head2").group.view.size == 1
        cluster.network.partitions.restore_link("head2", "head0")
        cluster.network.partitions.restore_link("head2", "head1")
        settle(stack, 12.0)
        sizes = {stack.joshua(h).group.view.size for h in stack.head_names}
        assert sizes == {3}

    def test_majority_side_keeps_serving(self):
        cluster, stack = make_partitioned_stack()
        settle(stack, 1.0)
        cluster.network.partitions.cut_link("head2", "head0")
        cluster.network.partitions.cut_link("head2", "head1")
        settle(stack, 4.0)
        client = stack.client(node="login", prefer="head0")
        job_id = drive(stack, client.jsub(name="majority", walltime=600))
        settle(stack, 1.0)
        assert job_id in stack.pbs("head0").jobs
        assert job_id in stack.pbs("head1").jobs


    def test_excluded_head_comes_back_through_a_marker(self):
        """A head the others excluded while it stayed up does not just
        re-merge: its member rejoins (``rejoins`` bumps), the engine
        demotes it, and it resyncs from the survivors through a marker
        like any joiner — dropping what it accepted on its own."""
        cluster, stack = make_partitioned_stack()
        settle(stack, 1.0)
        cluster.network.partitions.cut_link("head2", "head0")
        cluster.network.partitions.cut_link("head2", "head1")
        settle(stack, 4.0)
        majority = stack.client(node="login", prefer="head0")
        job_id = drive(stack, majority.jsub(name="majority", walltime=600))
        excluded, survivor = stack.joshua("head2"), stack.joshua("head0")
        assert excluded.active and job_id not in stack.pbs("head2").jobs
        served = survivor.stats["state_transfers_served"]
        cluster.network.partitions.restore_link("head2", "head0")
        cluster.network.partitions.restore_link("head2", "head1")
        seen = set()
        for _ in range(240):
            settle(stack, 0.05)
            seen.add(excluded.active)
        assert seen == {False, True} and excluded.active
        assert excluded.group.stats["rejoins"] == 1
        assert survivor.stats["state_transfers_served"] == served + 1
        assert job_id in stack.pbs("head2").jobs
        assert excluded.shards[0].applied_seq == survivor.shards[0].applied_seq


class TestPrimaryPartition:
    def test_minority_view_not_primary(self):
        cluster, stack = make_partitioned_stack(primary_partition=True)
        settle(stack, 1.0)
        cluster.network.partitions.cut_link("head2", "head0")
        cluster.network.partitions.cut_link("head2", "head1")
        settle(stack, 4.0)
        assert stack.joshua("head0").group.is_primary
        assert not stack.joshua("head2").group.is_primary

    def test_primary_lineage_and_the_two_node_problem(self):
        """3 -> 2 keeps primary (strict majority of 3). 2 -> 1 loses it:
        a single survivor of a two-member view is indistinguishable from
        one side of a two-way split, so strict majority denies it primary —
        the classic two-node quorum problem (real deployments add a witness
        or quorum disk). This is exactly the trade-off that made the paper
        run *without* a primary-partition rule under its fail-stop model."""
        cluster, stack = make_partitioned_stack(primary_partition=True)
        settle(stack, 1.0)
        cluster.node("head0").crash()
        settle(stack, 4.0)
        assert stack.joshua("head1").group.is_primary
        cluster.node("head2").crash()
        settle(stack, 4.0)
        assert not stack.joshua("head1").group.is_primary

    def test_paper_faithful_mode_keeps_serving_down_to_one(self):
        """Without the extension (the paper's configuration) the last head
        standing is fully primary and keeps accepting work."""
        cluster, stack = make_partitioned_stack(primary_partition=False)
        settle(stack, 1.0)
        cluster.node("head0").crash()
        settle(stack, 4.0)
        cluster.node("head2").crash()
        settle(stack, 4.0)
        assert stack.joshua("head1").group.is_primary
        client = stack.client(node="login", prefer="head1")
        job_id = drive(stack, client.jsub(name="last-head", walltime=600))
        settle(stack, 1.0)
        assert job_id in stack.pbs("head1").jobs


class TestJsigPassthrough:
    def test_jsig_signals_running_job(self, stack):
        client = stack.client(node="login")
        job_id = drive(stack, client.jsub(name="sig-me", walltime=600))
        settle(stack, 3.0)  # running
        detail = drive(stack, client.jsig(job_id, "SIGUSR2"))
        assert "SIGUSR2" in detail

    def test_jsig_works_after_head_failure(self, stack):
        client = stack.client(node="login", prefer="head0")
        job_id = drive(stack, client.jsub(name="sig-ha", walltime=600))
        settle(stack, 3.0)
        stack.cluster.node("head0").crash()
        settle(stack, 3.0)
        detail = drive(stack, client.jsig(job_id))
        assert "SIGTERM" in detail
