"""The split command plane: local-replica reads and the client gateway.

The write path is untouched — these tests pin the *read* path contract
(PROTOCOLS.md §12): ``ryw`` answers from the receiving head's local PBS
replica once the head's applied sequence reaches the client's write floors
(falling back to the ordered stream after ``read_catchup_timeout``), and
``ordered`` stays the wire-identical legacy route. The response *type* is the observable: a local read returns
a :class:`JStatResp` (with per-shard ``as_of_seq``), an ordered read — a
plain PBS :class:`StatResp`.
"""

import zlib

import pytest

from repro.faults import run_chaos
from repro.joshua.shard import queue_for_shard
from repro.joshua.wire import JStatResp, JSubReq, SeqStampedResp
from repro.pbs.job import JobSpec
from repro.pbs.wire import StatResp
from repro.util.errors import NoActiveHeadError, PBSError

from tests.integration.conftest import (
    SANITIZE,
    assert_sanitizer_clean,
    drive,
    make_stack,
    settle,
)


class TestLocalReads:
    def test_ordered_read_keeps_legacy_response_type(self):
        stack = make_stack(heads=2)
        client = stack.client(node="login")  # consistency="ordered" default
        drive(stack, client.jsub(name="legacy", walltime=300))
        rows = drive(stack, client.jstat())
        assert len(rows) == 1
        assert isinstance(client.last_stat_response, StatResp)

    def test_ryw_read_reflects_own_write(self):
        """Submit-then-jstat from a tracked client: the local answer's
        ``as_of_seq`` must cover the write's commit position."""
        stack = make_stack(heads=2)
        client = stack.client(node="login", consistency="ryw")
        job_id = drive(stack, client.jsub(name="mine", walltime=300))
        assert client.last_write_seq, "write was not seq-stamped"
        floor = client.last_write_seq[0]
        rows = drive(stack, client.jstat())
        assert job_id in [r.job_id for r in rows]
        response = client.last_stat_response
        assert isinstance(response, JStatResp)
        assert dict(response.as_of_seq)[0] >= floor

    def test_ryw_defers_until_applied_catches_up(self):
        """A floor ahead of the head's applied position parks the read;
        the next committed write advances the position and releases it —
        a local answer, not a fallback."""
        stack = make_stack(heads=2)
        kernel = stack.cluster.kernel
        client = stack.client(node="login", consistency="ryw")
        drive(stack, client.jsub(name="first", walltime=300))
        settle(stack, 1.0)
        applied = stack.joshua("head0").shards[0].applied_seq
        client.last_write_seq[0] = applied + 1  # a write no head applied yet
        reader = kernel.spawn(client.jstat())
        # Give the read time to arrive and park on the floor — well inside
        # read_catchup_timeout (0.5 s), so it cannot have fallen back yet.
        stack.cluster.run(until=kernel.now + 0.2)
        writer = stack.client(node="login")
        drive(stack, writer.jsub(name="unblocker", walltime=300))
        stack.cluster.run(until=reader)
        response = client.last_stat_response
        assert isinstance(response, JStatResp), response
        assert dict(response.as_of_seq)[0] >= applied + 1

    def test_ryw_falls_back_to_ordered_after_timeout(self):
        """A floor nothing will ever satisfy: the head waits out
        ``read_catchup_timeout`` and routes the query into the ordered
        stream — the reply is the legacy ``StatResp``, after the wait."""
        stack = make_stack(heads=2)
        kernel = stack.cluster.kernel
        client = stack.client(node="login", consistency="ryw")
        drive(stack, client.jsub(name="only", walltime=300))
        settle(stack, 1.0)
        client.last_write_seq[0] = 10_000  # unreachable floor
        t0 = kernel.now
        rows = drive(stack, client.jstat())
        timeout = stack.joshua("head0").times.read_catchup_timeout
        assert kernel.now - t0 >= timeout
        assert isinstance(client.last_stat_response, StatResp)
        assert len(rows) == 1  # the ordered detour still answers correctly


class TestCrossShardReads:
    """The ROADMAP gap: an *ordered* id-less jstat serialises only against
    shard 0's stream. Under the read path an id-less query gates on — and
    reports — every shard's applied position (one local stat *is* the
    per-shard fan-out, merged)."""

    def test_idless_read_covers_both_shards(self):
        stack = make_stack(heads=2, shards=2)
        client = stack.client(node="login", consistency="ryw")
        # "batch" hashes to shard 0, "workq" to shard 1.
        assert zlib.crc32(b"batch") % 2 == 0 and zlib.crc32(b"workq") % 2 == 1
        a = drive(stack, client.jsub(name="a", walltime=300, queue="batch"))
        b = drive(stack, client.jsub(name="b", walltime=300, queue="workq"))
        assert sorted(client.last_write_seq) == [0, 1]  # floors on both
        rows = drive(stack, client.jstat())
        assert {r.job_id for r in rows} == {a, b}
        response = client.last_stat_response
        assert isinstance(response, JStatResp)
        as_of = dict(response.as_of_seq)
        assert sorted(as_of) == [0, 1]  # both shards' positions reported
        for shard, floor in client.last_write_seq.items():
            assert as_of[shard] >= floor

    @pytest.mark.parametrize("head", ["head0", "head1"])
    def test_ordered_idless_read_lists_what_section_10_2_promises(self, head):
        """The *ordered* id-less listing rides shard 0's stream only
        (PROTOCOLS.md §10.2), so it lists an acknowledged shard-0 jsub
        from whichever head answers — and, being one stat of that head's
        local PBS, every shard-1 job the head has applied."""
        stack = make_stack(heads=2, shards=2)
        writer = stack.client(node="login")
        shard0, shard1 = queue_for_shard(0, 2), queue_for_shard(1, 2)
        for i in range(3):
            drive(stack, writer.jsub(name=f"one{i}", walltime=300, queue=shard1))
        # One more shard-1 write still in flight while the listing runs.
        stack.cluster.kernel.spawn(
            stack.client(node="login").jsub(name="late", walltime=300, queue=shard1))
        acked = drive(stack, writer.jsub(name="zero", walltime=300, queue=shard0))
        joshua = stack.joshua(head)
        assert joshua.shard_for_job(acked).index == 0
        applied = {job.job_id for job in stack.pbs(head).jobs
                   if joshua.shard_for_job(job.job_id).index == 1}
        assert len(applied) >= 3
        reader = stack.client(node="login", prefer=head)  # ordered by default
        listed = {row.job_id for row in drive(stack, reader.jstat())}
        assert isinstance(reader.last_stat_response, StatResp)
        assert reader.stats["failovers"] == 0  # *head* answered
        assert acked in listed
        assert applied <= listed

    def test_targeted_read_gates_only_owning_shard(self):
        """A jstat *with* an id gates on the owning shard alone: an
        unreachable floor on the other shard must not stall or fall back."""
        stack = make_stack(heads=2, shards=2)
        client = stack.client(node="login", consistency="ryw")
        a = drive(stack, client.jsub(name="a", walltime=300, queue="batch"))
        settle(stack, 1.0)
        owner = stack.joshua("head0").shard_for_job(a).index
        other = 1 - owner
        client.last_write_seq[other] = 10_000  # would never be met
        rows = drive(stack, client.jstat(a))
        assert [r.job_id for r in rows] == [a]
        assert isinstance(client.last_stat_response, JStatResp)


class TestJoinerPosition:
    """Replicas are identical at the marker cut — the applied position
    included (PROTOCOLS.md §12.2): every active replica's position is
    exact, and every tracked ack carries a stamp at or above the write's
    commit position, whichever head answers and however it got there.
    CI runs the first three a second time with ``REPRO_SANITIZE=1``."""

    @pytest.fixture
    def stack(self):
        stack = make_stack(heads=3, sanitize=SANITIZE)
        yield stack
        assert_sanitizer_clean(stack.cluster.kernel)

    @staticmethod
    def _joined(stack, tracked_via=None):
        """Three plain writes, optionally one tracked write through
        *tracked_via*, then a fresh head joins. Returns its shard."""
        client = stack.client(node="login")
        for i in range(3):
            drive(stack, client.jsub(name=f"pre{i}", walltime=900))
        if tracked_via is not None:
            tracked = stack.client(node="login", consistency="ryw",
                                   prefer=tracked_via)
            drive(stack, tracked.jsub(name="tracked", walltime=900))
        joiner = stack.add_head()
        settle(stack, 5.0)
        assert stack.joshua(joiner.name).active
        return stack.joshua(joiner.name).shards[0]

    @pytest.mark.parametrize("founder", ["head0", "head1", "head2"])
    def test_joiner_position_equals_sponsors(self, stack, founder):
        """Whichever founder took the only tracked request, the joiner
        resumes at the sponsors' position (the transfer used to depend on
        a per-host latch, and on whose push landed first)."""
        joined = self._joined(stack, tracked_via=founder)
        positions = {
            head: stack.joshua(head).shards[0].applied_seq
            for head in stack.head_names
        }
        assert set(positions.values()) == {4}, positions
        assert joined.applied_seq == 4

    def test_tracked_write_through_fresh_joiner_is_stamped(self, stack):
        joined = self._joined(stack, tracked_via="head1")
        client = stack.client(node="login", consistency="ryw", prefer=joined.node.name)
        drive(stack, client.jsub(name="via-joiner", walltime=900))
        assert client.last_write_seq == {0: 5}
        drive(stack, client.jstat())
        response = client.last_stat_response
        assert isinstance(response, JStatResp)
        assert response.node == joined.node.name
        assert dict(response.as_of_seq)[0] >= 5

    def test_retried_tracked_uuid_stamped_from_transferred_cache(self, stack):
        """A tracked uuid the joiner holds only in its transferred reply
        cache is answered stamped — with the cut position, which is never
        below the commit position the executing head stamped."""
        request = JSubReq("jsub-login-retried", JobSpec(name="once", walltime=900), True)

        def ask(head):
            client = stack.client(node="login", prefer=head)
            return drive(stack, client._failover(request, "no head answered"))

        first = ask("head0")
        assert isinstance(first, SeqStampedResp)
        joined = self._joined(stack)
        assert request.uuid in joined.results
        assert request.uuid not in joined.results_seq
        again = ask(joined.node.name)
        assert isinstance(again, SeqStampedResp)
        assert again.result == first.result
        assert again.seq >= first.seq
        assert ask("head0") == first  # the executing head still stamps exactly

    def test_chaos_read_mix_sees_every_tracked_ack_stamped(self):
        """Seed 5 restarts a head under the read workload: two of its four
        tracked writes used to come back bare, and the workload hid it by
        quietly submitting a twelfth job."""
        report = run_chaos(seed=5, read_mix=0.5, jobs=8)
        assert report.ok, [str(v) for v in report.violations]
        assert report.jobs_submitted == 11  # 8 + one floor-setting write per reader


class TestGateway:
    def test_sessions_spread_across_heads(self):
        stack = make_stack(heads=3)
        gateway = stack.gateway()
        sessions = [gateway.session("login", f"client{i}") for i in range(60)]
        by_head = {h: 0 for h in stack.head_names}
        for session in sessions:
            by_head[session.head] += 1
        assert all(count > 0 for count in by_head.values()), by_head
        assert gateway.stats["sessions"] == 60

    def test_assignment_is_stable(self):
        stack = make_stack(heads=3)
        gateway = stack.gateway()
        assert gateway.assign("alice") == gateway.assign("alice")

    def test_session_read_your_writes_end_to_end(self):
        stack = make_stack(heads=3)
        gateway = stack.gateway()
        session = gateway.session("login", "alice")
        job_id = drive(stack, session.jsub(name="hello", walltime=300))
        rows = drive(stack, session.jstat())
        assert job_id in [r.job_id for r in rows]
        assert gateway.stats["reads_local"] == 1
        assert gateway.stats["reads_fallback"] == 0
        assert gateway.stats["writes"] == 1

    def test_failover_repins_sessions_off_dead_head(self):
        """Crash a pinned head: the session's next call fails over, the
        gateway takes the head out of rotation and re-pins every session
        parked there."""
        stack = make_stack(heads=3)
        gateway = stack.gateway()
        gateway.forgive_after = 60.0
        sessions = [gateway.session("login", f"client{i}") for i in range(30)]
        victim = sessions[0].head
        parked = [s for s in sessions if s.head == victim]
        stack.cluster.node(victim).crash()
        settle(stack, 0.5)
        drive(stack, sessions[0].jsub(name="fo", walltime=300))
        assert gateway.stats["failovers"] >= 1
        assert victim not in gateway.live_heads()
        for session in parked:
            assert session.head != victim
        assert gateway.stats["reassignments"] >= len(parked) - 1

    @pytest.mark.parametrize("command", ["jdel", "jstat"])
    def test_job_id_spelling_joining_is_a_terminal_error(self, command):
        """Regression: failover is decided by the relayed error's typed
        ``kind``, never its text. An unknown job id that *contains*
        "joining" used to read as "head is joining": three failovers, a
        NoActiveHeadError, and the gateway evicting a healthy head."""
        stack = make_stack(heads=3)
        gateway = stack.gateway()
        gateway.forgive_after = 60.0
        sessions = [gateway.session("login", f"client{i}") for i in range(9)]
        pinned = [s.head for s in sessions]
        session = sessions[0]
        with pytest.raises(PBSError, match="Unknown Job Id joining.joshua") as err:
            drive(stack, getattr(session, command)("joining.joshua"))
        assert not isinstance(err.value, NoActiveHeadError)
        assert err.value.kind == "unknown-job"
        assert err.value.message == "Unknown Job Id joining.joshua"
        assert session.client.stats["failovers"] == 0
        assert gateway.stats["failovers"] == 0
        assert gateway.stats["reassignments"] == 0
        assert sorted(gateway.live_heads()) == sorted(stack.head_names)
        assert [s.head for s in sessions] == pinned

    def test_dead_head_forgiven_after_grace(self):
        stack = make_stack(heads=3)
        gateway = stack.gateway()
        gateway.forgive_after = 5.0
        gateway.mark_dead("head1")
        assert "head1" not in gateway.live_heads()
        settle(stack, 6.0)
        assert "head1" in gateway.live_heads()

    def test_all_dead_degrades_to_full_rotation(self):
        stack = make_stack(heads=2)
        gateway = stack.gateway()
        gateway.forgive_after = 60.0
        gateway.mark_dead("head0")
        gateway.mark_dead("head1")
        assert sorted(gateway.live_heads()) == sorted(stack.head_names)

    def test_gateway_requires_heads(self):
        stack = make_stack(heads=2)
        with pytest.raises(NoActiveHeadError):
            from repro.joshua.gateway import JoshuaGateway
            JoshuaGateway(stack.cluster.network, [])
