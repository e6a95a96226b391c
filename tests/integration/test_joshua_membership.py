"""JOSHUA join / leave / state transfer.

Paper §4-5: "Head nodes were able to join the service group, leave it
voluntary, and fail, while job and resource management state was maintained
consistently at all head nodes." Replay-mode state transfer cannot carry
held jobs (reproduced limitation); snapshot mode (the future-work path) can.
"""

import pytest

from repro.aa.wire import StateXferResp
from repro.pbs.job import JobState

from tests.integration.conftest import (
    SANITIZE,
    assert_sanitizer_clean,
    drive,
    drop_first_cut_pushes,
    make_stack,
    settle,
    total_runs,
)


def queue_snapshot(stack, head):
    return sorted(
        (j.job_id, j.spec.name, j.state.value) for j in stack.pbs(head).jobs
        if j.state is not JobState.COMPLETE
    )


class TestJoin:
    def test_new_head_joins_and_receives_state(self, stack):
        client = stack.client(node="login")
        ids = [drive(stack, client.jsub(name=f"pre{i}", walltime=900)) for i in range(3)]
        node = stack.add_head("head2")
        settle(stack, 6.0)
        joshua2 = stack.joshua("head2")
        assert joshua2.active
        assert queue_snapshot(stack, "head2") == queue_snapshot(stack, "head0")

    def test_joined_head_serves_commands(self, stack):
        client = stack.client(node="login")
        drive(stack, client.jsub(name="pre", walltime=900))
        stack.add_head("head2")
        settle(stack, 6.0)
        joined_client = stack.client(node="login", prefer="head2")
        job_id = drive(stack, joined_client.jsub(name="via-joiner", walltime=900))
        settle(stack, 1.0)
        for head in stack.head_names:
            assert job_id in stack.pbs(head).jobs

    def test_join_during_running_job_sees_it_through(self, stack):
        client = stack.client(node="login")
        job_id = drive(stack, client.jsub(name="inflight", walltime=12.0))
        settle(stack, 3.0)  # running
        stack.add_head("head2")
        stack.cluster.run(until=60.0)
        # The joiner learns the job and sees its completion (multi-server
        # obits now include it), and the job ran exactly once.
        job = stack.pbs("head2").jobs.get(job_id)
        assert job.state is JobState.COMPLETE
        assert total_runs(stack) == 1

    def test_commands_during_join_not_lost(self, stack):
        """Submissions racing the join land on the joiner exactly once
        (marker cut + post-marker execution)."""
        client = stack.client(node="login", prefer="head0")
        drive(stack, client.jsub(name="pre", walltime=900))
        stack.add_head("head2")
        # Submit while the join/state transfer is still in progress.
        racing = [
            stack.cluster.kernel.spawn(client.jsub(name=f"race{i}", walltime=900))
            for i in range(3)
        ]
        stack.cluster.run(until=stack.cluster.kernel.all_of(racing))
        settle(stack, 8.0)
        assert queue_snapshot(stack, "head2") == queue_snapshot(stack, "head0")
        assert len(queue_snapshot(stack, "head2")) == 4

    def test_replay_mode_skips_held_jobs(self):
        """The paper's limitation: command replay cannot transfer holds."""
        stack = make_stack()
        client = stack.client(node="login")
        drive(stack, client.jsub(name="blocker", walltime=900))
        held_id = drive(stack, client.jsub(name="held", walltime=900))
        # Hold through the plain PBS interface (JOSHUA provides no jhold).
        from repro.pbs import PBSClient
        for head in stack.head_names:
            pbs_client = PBSClient(
                stack.cluster.network, "login",
                stack.pbs(head).address,
            )
            drive(stack, pbs_client.qhold(held_id))
        stack.add_head("head2")
        settle(stack, 6.0)
        assert held_id not in stack.pbs("head2").jobs  # skipped
        assert "1.joshua" in stack.pbs("head2").jobs

    def test_job_ids_continue_correctly_after_join(self, stack):
        client = stack.client(node="login")
        drive(stack, client.jsub(name="a", walltime=1.0))
        drive(stack, client.jsub(name="b", walltime=1.0))
        stack.cluster.run(until=30.0)  # both complete
        stack.add_head("head2")
        settle(stack, 6.0)
        new_id = drive(stack, stack.client(node="login", prefer="head2").jsub(name="c"))
        # Completed jobs are not transferred, but the id counter is — no
        # id reuse.
        assert new_id == "3.joshua"


class TestLeave:
    def test_voluntary_leave_shrinks_group(self, stack):
        client = stack.client(node="login", prefer="head1")
        drive(stack, client.jsub(name="stay", walltime=900))
        stack.joshua("head0").leave()
        settle(stack, 4.0)
        assert stack.joshua("head1").group.view.size == 1
        job_id = drive(stack, client.jsub(name="after-leave", walltime=900))
        settle(stack, 1.0)
        assert job_id in stack.pbs("head1").jobs

    def test_leave_then_rejoin(self, stack):
        client = stack.client(node="login", prefer="head1")
        drive(stack, client.jsub(name="persist", walltime=900))
        stack.joshua("head0").leave()
        settle(stack, 4.0)
        # head0 rejoins: tear down and restart its daemons as a joiner.
        node = stack.cluster.node("head0")
        node.crash()
        settle(stack, 3.0)
        node.restart(daemons=False)
        # Reinstall as a joining head.
        contacts = ["head1"]
        stack.head_names.remove("head0")
        stack.head_names.append("head0")
        stack._install_head_daemons.__func__  # (sanity: method exists)
        # Re-register daemons fresh (old factories were for the founding
        # configuration).
        node._daemon_factories.clear()
        stack._install_head_daemons(node, founders=None, contacts=contacts)
        settle(stack, 8.0)
        assert stack.joshua("head0").active
        assert queue_snapshot(stack, "head0") == queue_snapshot(stack, "head1")


class TestAutomaticRejoin:
    def test_plain_node_restart_rejoins_automatically(self, stack):
        """node.restart() with default daemon restart must NOT resurrect a
        stale booted replica: the factory turns the new incarnation into a
        joiner with state transfer (the paper's process-kill fault, done
        right)."""
        client = stack.client(node="login", prefer="head1")
        ids = [drive(stack, client.jsub(name=f"a{i}", walltime=900)) for i in range(2)]
        node = stack.cluster.node("head0")
        node.crash()
        settle(stack, 3.0)
        node.restart()  # daemons restart automatically
        settle(stack, 10.0)
        joshua0 = stack.joshua("head0")
        assert joshua0.active
        assert joshua0.group.view.size == 2
        assert queue_snapshot(stack, "head0") == queue_snapshot(stack, "head1")

    def test_daemon_kill_and_restart_rejoins(self, stack):
        """Killing only the joshua process (not the node) and restarting it
        also rejoins rather than re-booting."""
        client = stack.client(node="login", prefer="head1")
        drive(stack, client.jsub(name="seed", walltime=900))
        node = stack.cluster.node("head0")
        node.stop_daemon("joshua")
        settle(stack, 3.0)  # group shrinks around the dead process
        assert stack.joshua("head1").group.view.size == 1
        node.start_daemon("joshua")
        settle(stack, 10.0)
        assert stack.joshua("head0").active
        assert stack.joshua("head1").group.view.size == 2
        # New work reaches both replicas again.
        job_id = drive(stack, client.jsub(name="after", walltime=900))
        settle(stack, 1.0)
        assert job_id in stack.pbs("head0").jobs


    def test_restarted_daemon_never_active_outside_the_survivors_view(self, stack):
        """Boot-vs-join is the engine's decision from its boot counter (it
        was a closure in the deployment code): sampled every 50 sim-ms, the
        restarted daemon is never in service in a view without the
        survivor, and a client preferring it loses no acknowledged jsub."""
        client = stack.client(node="login", prefer="head0")
        acknowledged = [drive(stack, client.jsub(name="seed", walltime=900))]
        node = stack.cluster.node("head0")
        node.stop_daemon("joshua")
        settle(stack, 3.0)
        acknowledged.append(drive(stack, client.jsub(name="while-down", walltime=900)))
        submitting = {"on": True}

        def submitter():
            index = 0
            while submitting["on"]:
                job_id = yield from client.jsub(name=f"s{index}", walltime=900)
                acknowledged.append(job_id)
                index += 1

        node.start_daemon("joshua")
        process = stack.cluster.kernel.spawn(submitter())
        for _ in range(60):
            settle(stack, 0.05)
            replica = stack.joshua("head0").shards[0]
            if replica.active:
                members = {member.node for member in replica.group.view.members}
                assert "head1" in members
        submitting["on"] = False
        stack.cluster.run(until=process)
        settle(stack, 1.0)
        assert stack.joshua("head0").active
        assert len(acknowledged) > 4
        assert queue_snapshot(stack, "head0") == queue_snapshot(stack, "head1")
        for head in stack.head_names:
            assert set(acknowledged) <= {j.job_id for j in stack.pbs(head).jobs}


class TestCrashedHeadRejoins:
    def test_crashed_head_rejoins_after_restart(self, stack):
        client = stack.client(node="login", prefer="head1")
        ids = [drive(stack, client.jsub(name=f"p{i}", walltime=900)) for i in range(2)]
        node = stack.cluster.node("head0")
        node.crash()
        settle(stack, 4.0)
        node.restart(daemons=False)
        node._daemon_factories.clear()
        stack._install_head_daemons(node, founders=None, contacts=["head1"])
        settle(stack, 10.0)
        assert stack.joshua("head0").active
        assert queue_snapshot(stack, "head0") == queue_snapshot(stack, "head1")
        # And it participates in new work.
        job_id = drive(stack, stack.client(node="login", prefer="head0").jsub(name="fresh"))
        settle(stack, 1.0)
        assert job_id in stack.pbs("head0").jobs


class TestLostPush:
    def test_lost_push_frame_recovered_by_fresh_cut(self):
        """The sponsors' capture push can be lost like any other datagram.
        The joiner must not stall: when no push of its cut arrives by the
        deadline it pins a fresh cut, and the sponsors capture again.
        CI runs this test a second time with ``REPRO_SANITIZE=1``."""
        stack = make_stack(sanitize=SANITIZE)
        client = stack.client(node="login")
        for i in range(3):
            drive(stack, client.jsub(name=f"pre{i}", walltime=900))
        drop_first_cut_pushes(stack.cluster.network)
        stack.add_head("head2")
        settle(stack, 15.0)
        joined = stack.joshua("head2").shards[0]
        assert joined.active
        assert queue_snapshot(stack, "head2") == queue_snapshot(stack, "head0")
        for sponsor in ("head0", "head1"):
            assert stack.joshua(sponsor).stats["state_transfers_served"] == 2
        assert joined._response is None and joined._push_waiter is None
        assert_sanitizer_clean(stack.cluster.kernel)


def captures_held(engine):
    """Every capture *engine* keeps in an attribute, directly or in a dict."""
    held = []
    for value in vars(engine).values():
        values = value.values() if isinstance(value, dict) else [value]
        held += [v for v in values if isinstance(v, StateXferResp)]
    return held


class TestJoinBookkeepingIsBounded:
    def test_join_leave_cycles_retain_no_capture(self, stack):
        """Five heads join and leave in turn, every other one with its first
        cut's pushes dropped so it re-cuts. A sponsor keeps no capture once
        it has pushed it, and a joiner keeps none once installed — not one
        whole capture, reply cache included, per marker for the life of
        the process."""
        client = stack.client(node="login")
        drive(stack, client.jsub(name="pre", walltime=900))
        network = stack.cluster.network
        sponsors = [stack.joshua(h).shards[0] for h in ("head0", "head1")]
        for cycle in range(5):
            lose_push = cycle % 2 == 1
            served = [s.stats["state_transfers_served"] for s in sponsors]
            if lose_push:
                token = drop_first_cut_pushes(network)
            joiner = stack.add_head()
            settle(stack, 15.0 if lose_push else 6.0)
            if lose_push:
                network.remove_drop_filter(token)
            joined = stack.joshua(joiner.name).shards[0]
            assert joined.active
            assert queue_snapshot(stack, joiner.name) == queue_snapshot(stack, "head0")
            assert [s.stats["state_transfers_served"] - n
                    for s, n in zip(sponsors, served)] == [1 + lose_push] * 2
            assert joined._push_waiter is None and not captures_held(joined)
            drive(stack, client.jsub(name=f"cycle{cycle}", walltime=900))
            stack.joshua(joiner.name).leave()
            settle(stack, 4.0)
            for sponsor in sponsors:
                assert sponsor.group.view.size == 2
                assert not captures_held(sponsor)
