"""A whole-group reboot comes back (PROTOCOLS.md §4, "Start").

Every head crashes, every head restarts, and no group is running: the
returners ask for a running group for one ``flush_timeout``, then re-form
the last view they installed once all of its members are back, and take
the highest applied position among them. The recipe is ROADMAP item 19's:
three acknowledged ``jsub``s (walltime 1e5, so ``1.joshua`` is still
running on the compute node), every head crashed, every head restarted 2 s
later.
"""

import pytest

from repro.aa.wire import StateXferResp
from repro.joshua.wire import JSubReq
from repro.pbs.job import JobSpec
from repro.util.errors import NoActiveHeadError

from tests.integration.conftest import drive, make_stack, settle


def crash_all(stack):
    for head in stack.head_names:
        stack.cluster.node(head).crash()


def restart(stack, heads):
    for head in heads:
        stack.cluster.node(head).restart()


def await_service(stack, bound):
    """Sim-seconds until every head is active, failing past *bound*."""
    start = stack.cluster.kernel.now
    while not all(stack.joshua(h).active for h in stack.head_names):
        assert stack.cluster.kernel.now - start <= bound, "service did not resume"
        settle(stack, 0.05)
    return stack.cluster.kernel.now - start


def tables(stack):
    return {h: sorted(j.job_id for j in stack.pbs(h).jobs) for h in stack.head_names}


def named(stack, head):
    return [(j.job_id, j.spec.name) for j in stack.pbs(head).jobs]


def cut_off(stack, head, cut=True):
    """Cut *head* off from the other heads (compute and login reach all),
    or restore its links."""
    partitions = stack.cluster.network.partitions
    for other in stack.head_names:
        if other != head:
            (partitions.cut_link if cut else partitions.restore_link)(head, other)


class TestWholeGroupReboot:
    @pytest.mark.parametrize("heads,shards", [(1, 1), (2, 1), (3, 1), (3, 2)])
    def test_service_resumes_after_every_head_reboots(self, heads, shards):
        stack = make_stack(heads=heads, computes=1, seed=11, shards=shards)
        settle(stack, 1.0)
        client = stack.client(node="login")
        ids = [drive(stack, client.jsub(name=f"j{i}", walltime=1e5)) for i in range(3)]
        settle(stack, 1.0)
        crash_all(stack)
        settle(stack, 2.0)
        restart(stack, stack.head_names)
        # The bound: each returner asks for a running group for one
        # flush_timeout; then one recovery flush and one marker round of
        # capture pushes, well inside another flush_timeout.
        flush_timeout = stack.group_config.flush_timeout
        await_service(stack, bound=2 * flush_timeout)
        settle(stack, 2.0)
        fresh = drive(stack, stack.client(node="login").jsub(name="after", walltime=10))
        settle(stack, 1.0)
        for head, held in tables(stack).items():
            assert set(ids) | {fresh} <= set(held), head
        assert fresh not in ids
        # 1.joshua still runs on the one compute node, launched once; its
        # requeued record is started again in emulation on every head.
        assert stack.mom("compute0").stats["runs"] == 1
        assert all(stack.pbs(h).jobs.get(ids[0]).state.value == "R"
                   for h in stack.head_names)

    def test_the_last_to_fail_is_waited_for(self):
        stack = make_stack(heads=3, computes=1, seed=11)
        settle(stack, 1.0)
        client = stack.client(node="login")
        acknowledged = [drive(stack, client.jsub(name="a", walltime=1e5))]
        for head in ("head2", "head1"):
            stack.cluster.node(head).crash()
            settle(stack, 3.0)
            acknowledged.append(drive(stack, client.jsub(name=head, walltime=1e5)))
        stack.cluster.node("head0").crash()
        settle(stack, 2.0)
        restart(stack, ["head1", "head2"])
        settle(stack, 10.0)
        # head0 failed last and holds the only complete state: without it
        # the returners stay joining and refuse, whoever is asked.
        assert not any(stack.joshua(h).active for h in ("head1", "head2"))
        for prefer in ("head1", "head2"):
            with pytest.raises(NoActiveHeadError, match="joining"):
                drive(stack, stack.client(node="login", prefer=prefer).jsub(name="no"))
        waits = [r.message for r in stack.cluster.kernel.log.records
                 if "waiting for head0" in r.message]
        assert waits
        restart(stack, ["head0"])
        await_service(stack, bound=2 * stack.group_config.flush_timeout)
        settle(stack, 1.0)
        for head, held in tables(stack).items():
            assert set(acknowledged) <= set(held), head
        drive(stack, stack.client(node="login").jsub(name="after", walltime=10))

    def test_a_member_lost_before_the_decision_is_waited_for_again(self):
        """head2 fails once the round has formed, before anyone has seen
        its capture: it may hold the highest position, so the others go
        back to waiting for it rather than decide without it."""
        stack = make_stack(heads=3, computes=1, seed=11)
        settle(stack, 1.0)
        client = stack.client(node="login")
        ids = [drive(stack, client.jsub(name=f"j{i}", walltime=1e5)) for i in range(3)]
        settle(stack, 1.0)
        crash_all(stack)
        settle(stack, 2.0)
        restart(stack, stack.head_names)
        engines = [stack.joshua(h).shards[0] for h in stack.head_names]
        while not all(e._recovering for e in engines):
            settle(stack, 0.005)
        stack.cluster.node("head2").crash()
        settle(stack, 5.0)
        assert not any(stack.joshua(h).active for h in ("head0", "head1"))
        restart(stack, ["head2"])
        await_service(stack, bound=2 * stack.group_config.flush_timeout)
        settle(stack, 1.0)
        assert len({tuple(held) for held in tables(stack).values()}) == 1
        assert set(ids) <= set(tables(stack)["head0"])

    def test_a_retry_across_the_reboot_executes_again(self):
        """Not guaranteed (PROTOCOLS.md §4): the reply cache is not on
        disk, so a client that retries an answered uuid after a whole-group
        failure submits its job a second time, under a new id."""
        stack = make_stack(heads=2, computes=1, seed=11)
        settle(stack, 1.0)
        client = stack.client(node="login")
        request = JSubReq("retried-uuid", JobSpec(name="r", walltime=1e5))
        first = drive(stack, client._call(request)).job_id
        settle(stack, 1.0)
        crash_all(stack)
        settle(stack, 2.0)
        restart(stack, stack.head_names)
        await_service(stack, bound=2 * stack.group_config.flush_timeout)
        again = drive(stack, stack.client(node="login", prefer="head1")._call(request))
        assert again.job_id != first
        assert all(tables(stack)[h] == sorted([first, again.job_id])
                   for h in stack.head_names)


class TestRebootAcrossAPartition:
    """Every view is primary (§2.1), so a head cut off alone keeps serving
    in a one-member view, and that view is the last one on its disk."""

    def split(self):
        stack = make_stack(heads=3, computes=2, seed=53)
        settle(stack, 1.0)
        cut_off(stack, "head2")
        settle(stack, 4.0)
        minority = stack.client(node="login", prefer="head2")
        majority = stack.client(node="login", prefer="head0")
        assert drive(stack, minority.jsub(name="minority", walltime=1e5)) == "1.joshua"
        assert drive(stack, majority.jsub(name="majority", walltime=1e5)) == "1.joshua"
        settle(stack, 1.0)
        return stack

    def test_a_lone_returner_joins_the_running_group(self):
        """head2 crashes while cut off and returns after the heal, while
        head0 and head1 run on. It asks for a running group for one
        flush_timeout before it may re-form its one-member view, so it
        joins that group and never serves alone."""
        stack = self.split()
        stack.cluster.node("head2").crash()
        cut_off(stack, "head2", cut=False)
        settle(stack, 2.0)
        restart(stack, ["head2"])
        returner = stack.joshua("head2").shards[0]
        start = stack.cluster.kernel.now
        while not returner.active:
            assert stack.cluster.kernel.now - start <= 2 * stack.group_config.flush_timeout
            settle(stack, 0.01)
        assert returner.group.view.size == 3
        assert named(stack, "head2") == named(stack, "head0") == [("1.joshua", "majority")]

    def test_a_reboot_during_the_cut_keeps_the_side_back_first(self):
        """Not guaranteed (PROTOCOLS.md §4): every head crashes during the
        cut, and head2 returns first. It finds no group and re-forms its
        one-member view, as its disk says. head0 and head1 return later and
        find that group running, so they join it and are resynced from it,
        as any returner is: the majority's acknowledged job is lost on
        every head, although every member of their last view came back."""
        stack = self.split()
        crash_all(stack)
        cut_off(stack, "head2", cut=False)
        settle(stack, 2.0)
        restart(stack, ["head2"])
        settle(stack, 3.0)
        assert stack.joshua("head2").active
        restart(stack, ["head0", "head1"])
        await_service(stack, bound=2 * stack.group_config.flush_timeout)
        settle(stack, 1.0)
        for head in stack.head_names:
            assert named(stack, head) == [("1.joshua", "minority")], head


class TestNoMemberInService:
    def test_a_view_of_joiners_takes_in_the_returners_and_stalls(self):
        """Not guaranteed (PROTOCOLS.md §4): head0 is rejoining (in the
        view, its capture not yet installed) when head1 and head2 fail.
        Their last view holds head0, which never left its group, so they
        join it as it stands, and no member of that view is in service to
        serve a capture: nobody becomes active again."""
        stack = make_stack(heads=3, computes=1, seed=11)
        settle(stack, 1.0)
        drive(stack, stack.client(node="login").jsub(name="a", walltime=1e5))
        network = stack.cluster.network
        token = network.add_drop_filter(lambda src, dst, p: isinstance(p, StateXferResp))
        stack.cluster.node("head0").crash()
        settle(stack, 2.0)
        restart(stack, ["head0"])
        settle(stack, 1.0)
        assert not stack.joshua("head0").active
        assert stack.joshua("head0").shards[0].group.view.size == 3
        for head in ("head1", "head2"):
            stack.cluster.node(head).crash()
        network.remove_drop_filter(token)
        settle(stack, 2.0)
        restart(stack, ["head1", "head2"])
        settle(stack, 20.0)
        assert stack.joshua("head1").shards[0].group.view.size == 3
        assert not any(stack.joshua(h).active for h in stack.head_names)
        with pytest.raises(NoActiveHeadError, match="joining"):
            drive(stack, stack.client(node="login").jsub(name="no"))
