"""JOSHUA under network partitions.

The paper's failure model is fail-stop (unplugged cables treated as node
death); partitions that later *heal* were out of its scope. There is no
primary-partition rule: every installed view is primary, so both sides of a
split keep serving, down to a single head, and merge when the network
heals. The side that loses the merge is demoted and resynced from the
survivors; what it acknowledged on its own is replayed after their history,
so an acknowledged job id may come back under another id (PROTOCOLS.md
§4.1 states this as a non-guarantee).
"""

from repro.cluster import Cluster
from repro.joshua import build_joshua_stack

from tests.integration.conftest import FAST_GROUP, drive, settle


def make_partitioned_stack(seed=53):
    cluster = Cluster(head_count=3, compute_count=2, seed=seed, login_node=True)
    stack = build_joshua_stack(cluster, group_config=FAST_GROUP)
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

    def test_a_heal_renumbers_the_minority_ack_and_every_reply_cache_agrees(self):
        """Both sides acknowledge ``1.joshua`` while split. The merged group
        orders the minority's command after the majority's, so the minority
        job comes back as ``2.joshua`` on every head — the non-guarantee of
        PROTOCOLS.md §4.1. The demoted head's reply cache is the survivors':
        it used to keep its own ``1.joshua`` for the minority's uuid, so a
        retry answered differently depending on the head it reached."""
        cluster, stack = make_partitioned_stack()
        settle(stack, 1.0)
        cluster.network.partitions.cut_link("head2", "head0")
        cluster.network.partitions.cut_link("head2", "head1")
        settle(stack, 4.0)
        minority = stack.client(node="login", prefer="head2")
        majority = stack.client(node="login", prefer="head0")
        assert drive(stack, minority.jsub(name="minority", walltime=600)) == "1.joshua"
        assert drive(stack, majority.jsub(name="majority", walltime=600)) == "1.joshua"
        cluster.network.partitions.restore_link("head2", "head0")
        cluster.network.partitions.restore_link("head2", "head1")
        settle(stack, 15.0)
        for head in stack.head_names:
            assert [(j.job_id, j.spec.name) for j in stack.pbs(head).jobs] == [
                ("1.joshua", "majority"), ("2.joshua", "minority"),
            ], head
        caches = {head: {uuid: reply.job_id
                         for uuid, reply in stack.joshua(head).results.items()}
                  for head in stack.head_names}
        assert caches["head2"] == caches["head0"] == caches["head1"]
        assert sorted(caches["head0"].values()) == ["1.joshua", "2.joshua"]
        assert caches["head2"]["jsub-login-1"] == "2.joshua"  # the minority's


class TestPrimaryPartition:
    def test_paper_faithful_mode_keeps_serving_down_to_one(self):
        """Every view is primary (the paper's configuration): the last head
        standing keeps accepting work."""
        cluster, stack = make_partitioned_stack()
        settle(stack, 1.0)
        cluster.node("head0").crash()
        settle(stack, 4.0)
        cluster.node("head2").crash()
        settle(stack, 4.0)
        assert stack.joshua("head1").group.view.size == 1
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
        detail = drive(stack, client.jsig(job_id, "SIGTERM"))
        assert "SIGTERM" in detail
