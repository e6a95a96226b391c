"""Chaos harness integration: schedules driving full JOSHUA stacks.

The first half re-expresses the classic failure/partition drills as
declarative :class:`~repro.faults.FaultSchedule` scenarios — same faults
the hand-written tests inject imperatively, now with every invariant
checker watching. The second half smoke-tests the random soak path that
``repro chaos soak`` and CI rely on.
"""

from pathlib import Path

import pytest

from repro.faults import FaultSchedule, run_chaos
from repro.gcs.member import GroupMember

from tests.integration.conftest import drive, make_stack, settle

#: The committed rolling-restart scenario CI's chaos-smoke replays: every
#: head crashed and restarted in turn under load, head2 restarting while
#: head1 is still joining, head0 (the clients' first choice) twice.
ROLLING_RESTART = Path(__file__).resolve().parents[1] / "data" / "chaos_rolling_restart.json"

#: The committed whole-group schedule CI's chaos-smoke replays beside it:
#: every head crashes at one instant and restarts 2 s later, then the heads
#: fail one after another (head0 last) and all return, head0 last again.
GROUP_RESTART = ROLLING_RESTART.with_name("chaos_group_restart.json")


class TestScriptedScenarios:
    def test_head_crash_and_restart_schedule(self):
        """The §5 single-failure drill, schedule-driven: a head dies while
        jobs flow and later rejoins; no invariant may break."""
        schedule = FaultSchedule().crash(6.0, "head0").restart(18.0, "head0")
        report = run_chaos(schedule, seed=21, heads=2, computes=2, jobs=4)
        assert report.ok, [str(v) for v in report.violations]
        assert report.jobs_submitted == 4
        assert report.jobs_completed == 4
        assert any(a == "crash head0" for _t, a in report.events_applied)

    def test_double_failure_schedule(self):
        """Two of three heads out simultaneously — the paper's multiple
        simultaneous failures case."""
        schedule = (
            FaultSchedule()
            .crash(6.0, "head0")
            .crash(6.0, "head1")
            .restart(16.0, "head0")
            .restart(18.0, "head1")
        )
        report = run_chaos(schedule, seed=23, heads=3, computes=2, jobs=4)
        assert report.ok, [str(v) for v in report.violations]
        assert report.jobs_completed == report.jobs_submitted

    def test_link_cut_partition_schedule(self):
        """The partition drill as a schedule: a head loses its peers' links
        and heals. The head that lost the merge demotes itself and resyncs
        live state from the survivors (commands it missed while excluded
        stay gone — the invariants must account for that, not fire)."""
        schedule = (
            FaultSchedule()
            .cut(6.0, "head0", "head1")
            .cut(6.0, "head0", "head2")
            .restore(14.0, "head0", "head1")
            .restore(14.0, "head0", "head2")
        )
        report = run_chaos(schedule, seed=27, heads=3, computes=2, jobs=4)
        assert report.ok, [str(v) for v in report.violations]
        assert report.jobs_completed > 0

    def test_compute_freeze_schedule(self):
        """A compute NIC blackout during job traffic: jobs must neither be
        lost nor double-launched once the node thaws."""
        schedule = FaultSchedule().freeze(5.0, "compute0", 2.0)
        report = run_chaos(schedule, seed=29, heads=2, computes=2, jobs=4)
        assert report.ok, [str(v) for v in report.violations]
        assert report.jobs_completed == report.jobs_submitted

    def test_crash_restart_then_freezes_schedule(self):
        """Regression scenario found by chaos probing: a head restart
        followed by a head freeze and a compute freeze. This interleaving
        once chained three distinct bugs — a zombie head serving stale
        launch-mutex decisions after a split-brain merge, a forget_peer'd
        transport channel black-holing the loser's rejoin requests, and a
        mom start attempt whose prologue outlived the running job."""
        schedule = (
            FaultSchedule()
            .crash(6.0, "head0")
            .restart(12.0, "head0")
            .freeze(15.0, "head1", 2.0)
            .freeze(19.0, "compute0", 4.0)
        )
        report = run_chaos(
            schedule, seed=33, heads=3, jobs=6, duration=25, ordering="sequencer"
        )
        assert report.ok, [str(v) for v in report.violations]
        assert report.jobs_completed == report.jobs_submitted == 6

    def test_loss_burst_schedule_token_ordering(self):
        schedule = FaultSchedule().loss_burst(5.0, 0.15, 5.0).token_loss(12.0, 0.8)
        report = run_chaos(
            schedule, seed=31, heads=3, computes=2, jobs=4, ordering="token"
        )
        assert report.ok, [str(v) for v in report.violations]
        assert report.jobs_completed == report.jobs_submitted


class TestRollingRestart:
    @pytest.mark.parametrize("ordering,shards", [
        ("sequencer", 1), ("token", 1), ("sequencer", 2),
    ])
    def test_rolling_restart_schedule(self, ordering, shards):
        """Before incarnation-stamped ids a restarted gateway head needed 4
        × flush_timeout per multicast of its past life to rejoin, so this
        schedule left the clients nobody to talk to (7 of 12 submissions
        accepted); now every head is back within a marker round."""
        schedule = FaultSchedule.from_json(ROLLING_RESTART.read_text())
        report = run_chaos(schedule, seed=0, jobs=12, duration=30.0,
                           ordering=ordering, shards=shards)
        assert report.ok, [str(v) for v in report.violations]
        assert report.jobs_submitted == 12


class TestGroupRestart:
    def test_whole_group_restart_schedule(self):
        """Both whole-group shapes come back, and every acknowledged job
        with them: the report is clean, the client history included."""
        schedule = FaultSchedule.from_json(GROUP_RESTART.read_text())
        report = run_chaos(schedule, seed=0, jobs=12, duration=30.0)
        assert report.ok, [str(v) for v in report.violations]
        assert not report.exempted
        assert report.jobs_submitted > 0
        assert report.jobs_completed == report.jobs_submitted
        assert sum(1 for _t, action in report.events_applied
                   if action.startswith("restart")) == 6


class TestRandomSmoke:
    def test_random_scenario_all_invariants(self):
        report = run_chaos(seed=0)
        assert report.ok, [str(v) for v in report.violations]
        assert report.jobs_completed > 0
        assert report.events_applied  # faults actually fired

    def test_random_scenario_token_ordering(self):
        report = run_chaos(seed=1, ordering="token")
        assert report.ok, [str(v) for v in report.violations]
        assert report.jobs_completed > 0

    def test_same_seed_reproduces_run(self):
        """The replay contract: seed → identical scenario and outcome."""
        a = run_chaos(seed=5)
        b = run_chaos(seed=5)
        assert a.schedule.sorted_events() == b.schedule.sorted_events()
        assert a.events_applied == b.events_applied
        assert a.jobs_submitted == b.jobs_submitted
        assert a.jobs_completed == b.jobs_completed
        assert [str(v) for v in a.violations] == [str(v) for v in b.violations]


class TestReadMix:
    """The read-your-writes property under chaos: gateway sessions submit
    then immediately jstat across head crashes and partitions. Every reply
    must either reflect the session's own writes (a local ``JStatResp``
    whose ``as_of_seq`` covers the floors — checked by the suite's
    read-your-writes / monotonic-reads invariants) or be an explicit
    ordered fallback."""

    def test_ryw_reads_across_head_crash(self):
        schedule = FaultSchedule().crash(6.0, "head0").restart(18.0, "head0")
        report = run_chaos(
            schedule, seed=21, heads=3, computes=2, jobs=6, read_mix=0.5,
        )
        assert report.ok, [str(v) for v in report.violations]
        assert report.reads_issued > 0
        accounted = (report.reads_local + report.reads_fallback
                     + report.reads_failed)
        assert accounted == report.reads_issued
        assert "reads=" in report.summary()

    def test_ryw_reads_across_partition(self):
        schedule = (
            FaultSchedule()
            .cut(6.0, "head0", "head1")
            .cut(6.0, "head0", "head2")
            .restore(14.0, "head0", "head1")
            .restore(14.0, "head0", "head2")
        )
        report = run_chaos(
            schedule, seed=27, heads=3, computes=2, jobs=6, read_mix=0.5,
        )
        assert report.ok, [str(v) for v in report.violations]
        assert report.reads_issued > 0
        assert report.reads_local > 0  # the read path actually exercised

    def test_random_scenario_with_read_mix(self):
        report = run_chaos(seed=0, read_mix=0.4)
        assert report.ok, [str(v) for v in report.violations]
        assert report.reads_issued > 0
        assert report.events_applied

    def test_write_only_summary_unchanged(self):
        report = run_chaos(seed=0)
        assert "reads=" not in report.summary()

    def test_invalid_read_mix_rejected(self):
        import pytest

        from repro.util.errors import ClusterError

        with pytest.raises(ClusterError):
            run_chaos(seed=0, read_mix=1.0)
        with pytest.raises(ClusterError):
            run_chaos(seed=0, read_mix=-0.1)


class TestInvariantSuiteCatchesRealBreakage:
    """Each client-facing rule fires on the breakage it exists for. The
    findings come from the suite's client history
    (:mod:`repro.faults.history`), judged at ``final_check``."""

    @staticmethod
    def _findings(suite, rule):
        suite.final_check()
        return [v for v in suite.violations if v.invariant == rule]

    def test_lost_job_detected(self):
        """An acknowledged live job missing from one head's table is a
        finding of the end-of-run read."""
        from repro.faults import InvariantSuite

        stack = make_stack(heads=2, computes=2, seed=41)
        stack.cluster.run(until=2.0)
        suite = InvariantSuite(stack).attach()
        client = stack.client(node="login")
        job_id = drive(stack, client.jsub(name="victim", walltime=600))
        settle(stack, 2.0)
        stack.pbs("head1").jobs.remove(job_id)  # simulated state corruption
        [finding] = self._findings(suite, "linearizable")
        assert job_id in finding.detail
        assert "head1's table at the end: no such job" in finding.detail

    def test_lost_job_detected_on_a_restarted_head(self):
        """A head that crashed and rejoined is held to the same read: the
        job was live at its marker cut, so the capture carried it."""
        from repro.faults import InvariantSuite

        stack = make_stack(heads=3, computes=2, seed=41)
        stack.cluster.run(until=2.0)
        suite = InvariantSuite(stack).attach()
        client = stack.client(node="login")
        job_id = drive(stack, client.jsub(name="victim", walltime=600))
        stack.cluster.node("head1").crash()
        settle(stack, 3.0)
        stack.cluster.node("head1").restart()
        settle(stack, 10.0)
        assert stack.joshua("head1").active
        assert suite.final_check() == []  # the transfer carried the job
        stack.pbs("head1").jobs.remove(job_id)
        [finding] = self._findings(suite, "linearizable")
        assert "head1's table at the end: no such job" in finding.detail

    def test_stale_read_detected(self):
        """A local ``ryw`` read that lacks the session's own acknowledged
        job: the answering head reached the floor, so it applied the write."""
        from repro.faults import InvariantSuite

        stack = make_stack(heads=2, computes=1, seed=47)
        stack.cluster.run(until=2.0)
        suite = InvariantSuite(stack).attach()
        session = stack.gateway().session("login", "alice")
        job_id = drive(stack, session.jsub(name="mine", walltime=600))
        stack.pbs(session.head).jobs.remove(job_id)  # the replica lost it
        drive(stack, session.jstat())
        suite.observe_read("alice", dict(session.client.last_write_seq),
                           session.client.last_stat_response)
        [finding] = self._findings(suite, "read-your-writes")
        assert job_id in finding.detail and "shard 0" in finding.detail

    def test_missing_shard_position_detected(self):
        """With two shards, an id-less read gates on every shard: a local
        answer that lacks the session's write on shard 1 is stale there."""
        from repro.faults import InvariantSuite
        from repro.joshua.shard import queue_for_shard

        stack = make_stack(heads=2, computes=1, seed=47, shards=2)
        stack.cluster.run(until=2.0)
        suite = InvariantSuite(stack).attach()
        session = stack.gateway().session("login", "alice")
        job_id = drive(stack, session.jsub(
            name="mine", walltime=600, queue=queue_for_shard(1, 2)))
        assert stack.joshua(session.head).shard_for_job(job_id).index == 1
        stack.pbs(session.head).jobs.remove(job_id)
        drive(stack, session.jstat())
        [finding] = self._findings(suite, "read-your-writes")
        assert "shard 1" in finding.detail

    def test_monotonic_reads_regression_detected(self):
        """A session re-reading the same head must not lose a job it was
        shown (one another client submitted, so read-your-writes does not
        cover it) unless the job may have finished."""
        from repro.faults import InvariantSuite

        stack = make_stack(heads=2, computes=1, seed=47)
        stack.cluster.run(until=2.0)
        suite = InvariantSuite(stack).attach()
        other = drive(stack, stack.client(node="login").jsub(
            name="theirs", walltime=600))
        session = stack.gateway().session("login", "alice")
        drive(stack, session.jstat())
        suite.observe_read("alice", {}, session.client.last_stat_response)
        stack.pbs(session.head).jobs.remove(other)  # between the two reads
        drive(stack, session.jstat())
        suite.observe_read("alice", {}, session.client.last_stat_response)
        [finding] = self._findings(suite, "monotonic-reads")
        assert other in finding.detail and "alice" in finding.detail
        assert not [v for v in suite.violations if v.invariant == "read-your-writes"]

    def test_bare_tracked_ack_detected(self, monkeypatch):
        """A ``track_seq`` write acknowledged without its commit position:
        the client hook sees the bare reply."""
        from repro.aa.engine import ReplicationEngine
        from repro.faults import InvariantSuite

        monkeypatch.setattr(ReplicationEngine, "_stamped",
                            lambda self, uuid, track: self.results.get(uuid))
        stack = make_stack(heads=2, computes=1, seed=47)
        stack.cluster.run(until=2.0)
        suite = InvariantSuite(stack).attach()
        session = stack.gateway().session("login", "alice")
        drive(stack, session.jsub(name="mine", walltime=600))
        [finding] = self._findings(suite, "tracked-write-stamped")
        assert "without a stamp" in finding.detail

    def test_ordered_responses_ignored_by_read_checker(self):
        """An ordered answer is judged by neither session rule: a ``ryw``
        read whose floor no replica reaches in time falls back to the
        ordered path, and its answer lacking the session's own job is no
        finding. The same read answered locally is both."""
        from repro.faults import InvariantSuite
        from repro.joshua.wire import JStatResp

        stack = make_stack(heads=2, computes=1, seed=47)
        stack.cluster.run(until=2.0)
        suite = InvariantSuite(stack).attach()
        session = stack.gateway().session("login", "alice")
        client = session.client
        job_id = drive(stack, session.jsub(name="mine", walltime=600))
        floors = dict(client.last_write_seq)
        drive(stack, session.jstat())
        suite.observe_read("alice", floors, client.last_stat_response)
        stack.pbs(session.head).jobs.remove(job_id)  # the replica lost it

        def session_rules():
            findings, _exempted = suite.history.judge({})
            return {rule for rule, _ in findings} & {
                "read-your-writes", "monotonic-reads"}

        client.last_write_seq[0] = 10 ** 6  # no replica gets there in time
        drive(stack, session.jstat())
        assert not isinstance(client.last_stat_response, JStatResp)
        assert job_id not in {row.job_id for row in client.last_stat_response.rows}
        suite.observe_read("alice", {0: 10 ** 6}, client.last_stat_response)
        assert session_rules() == set()

        client.last_write_seq[0] = floors[0]
        drive(stack, session.jstat())
        assert isinstance(client.last_stat_response, JStatResp)
        suite.observe_read("alice", floors, client.last_stat_response)
        assert session_rules() == {"read-your-writes", "monotonic-reads"}

    def test_duplicate_launch_detected(self):
        """Sanity: concurrent duplicate executions are flagged the moment
        the second launch happens."""
        from repro.faults import InvariantSuite
        from repro.pbs.wire import JobStartReq

        stack = make_stack(heads=2, computes=2, seed=43)
        stack.cluster.run(until=2.0)
        suite = InvariantSuite(stack).attach()
        from repro.pbs.job import JobSpec

        mom = stack.mom("compute0")
        req = JobStartReq("9.joshua", JobSpec(name="dup"), ("compute0",))
        mom.on_job_start(req)
        mom.on_job_start(req)  # second concurrent "real" execution
        assert any(
            v.invariant == "exactly-once-launch" for v in suite.violations
        )


class TestSilentlyMissedDelivery:
    """A head whose group member drops one delivery before the application
    (and the suite's tap) sees it: no JOSHUA-level invariant notices a
    missed ``Done``, ``Claim`` or ``Started``, so the group's contract
    must, naming the head, the view and the seq it skipped."""

    @staticmethod
    def plant_skip(monkeypatch, node, nth):
        """Skip *node*'s *nth* delivery inside ``_deliver_ready``; returns
        the list the skipped message is appended to."""
        original = GroupMember._deliver_ready
        count, skipped = [0], []

        def deliver_ready(self):
            if self.address.node != node:
                return original(self)
            inner = self.on_deliver

            def skipping(msg):
                count[0] += 1
                if count[0] == nth:
                    skipped.append(msg)
                else:
                    inner(msg)

            self.on_deliver = skipping
            try:
                original(self)
            finally:
                self.on_deliver = inner

        monkeypatch.setattr(GroupMember, "_deliver_ready", deliver_ready)
        return skipped

    @pytest.mark.parametrize("seed, ordering, nth", [
        (0, "sequencer", 5), (0, "sequencer", 15),
        (1, "token", 5), (1, "token", 15),
    ])
    def test_skipped_delivery_is_flagged(self, monkeypatch, seed, ordering, nth):
        skipped = self.plant_skip(monkeypatch, "head1", nth)
        report = run_chaos(seed=seed, ordering=ordering)
        [msg] = skipped
        where = f"view {msg.view_id} seq {msg.seq}"
        contract = [
            v for v in report.violations
            if v.invariant in ("gap-free", "virtual-synchrony")
        ]
        assert any(
            "head1" in v.detail and where in v.detail and str(msg.msg_id) in v.detail
            for v in contract
        ), [str(v) for v in report.violations]
