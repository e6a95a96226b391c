"""Unit tests for the PBS data model: jobs, queue, scheduling."""

import pytest

from repro.pbs import Job, JobQueue, JobSpec, JobState
from repro.pbs.job import KILLED_EXIT_STATUS, JobRow
from repro.pbs.scheduler import QueueView, fifo_decide
from repro.pbs.service_times import ERA_2006
from repro.pbs.wire import SchedPollResp
from repro.util.errors import PBSError, UnknownJobError


class TestJobSpec:
    def test_defaults(self):
        spec = JobSpec()
        assert spec.nodes == 1 and spec.walltime == 60.0

    def test_validation(self):
        with pytest.raises(PBSError):
            JobSpec(nodes=0)
        with pytest.raises(PBSError):
            JobSpec(walltime=0)


class TestJob:
    def make(self, state=JobState.QUEUED):
        job = Job("7.torque", JobSpec(name="t"), submit_time=1.0)
        if state is JobState.RUNNING:
            job = job.transition(JobState.RUNNING, start_time=2.0)
        return job

    def test_sequence_parsing(self):
        assert self.make().sequence == 7

    def test_legal_transition(self):
        job = self.make().transition(JobState.RUNNING, start_time=2.0)
        assert job.state is JobState.RUNNING

    def test_illegal_transition(self):
        with pytest.raises(PBSError, match="illegal transition"):
            self.make().transition(JobState.EXITING)

    def test_complete_is_terminal(self):
        job = self.make(JobState.RUNNING).transition(JobState.COMPLETE)
        assert job.state is JobState.COMPLETE
        with pytest.raises(PBSError):
            job.transition(JobState.QUEUED)

    def test_hold_release_cycle(self):
        job = self.make().transition(JobState.HELD)
        job = job.transition(JobState.QUEUED)
        assert job.state is JobState.QUEUED

    def test_requeue_from_running(self):
        job = self.make(JobState.RUNNING).transition(JobState.QUEUED)
        assert job.state is JobState.QUEUED

    def test_immutability(self):
        job = self.make()
        job2 = job.transition(JobState.HELD)
        assert job.state is JobState.QUEUED and job2.state is JobState.HELD

    def test_stat_row(self):
        row = self.make(JobState.RUNNING).stat_row()
        assert type(row) is JobRow
        # The columns, in the order the row's dict form had its keys.
        assert JobRow._fields == (
            "job_id", "name", "owner", "state", "queue", "nodes", "walltime",
            "exec_nodes", "exit_status", "comment",
        )
        assert row._asdict() == {
            "job_id": "7.torque", "name": "t", "owner": "user", "state": "R",
            "queue": "batch", "nodes": 1, "walltime": 60.0, "exec_nodes": (),
            "exit_status": None, "comment": "",
        }

    def test_killed_exit_status_constant(self):
        assert KILLED_EXIT_STATUS == 271


class TestJobQueue:
    def make_jobs(self, n=3):
        q = JobQueue()
        for i in range(1, n + 1):
            q.add(Job(f"{i}.t", JobSpec(name=f"j{i}")))
        return q

    @staticmethod
    def first_started(q):
        """The job the FIFO scheduler starts next on a free node."""
        decision = fifo_decide([j.stat_row() for j in q.snapshot()], [("c0", True)])
        return decision and decision[0]

    def test_len_contains_iter(self):
        q = self.make_jobs()
        assert len(q) == 3
        assert "2.t" in q
        assert [j.job_id for j in q] == ["1.t", "2.t", "3.t"]

    def test_get_unknown_raises(self):
        with pytest.raises(UnknownJobError):
            JobQueue().get("9.t")

    def test_update_unknown_raises(self):
        with pytest.raises(UnknownJobError):
            JobQueue().update(Job("9.t", JobSpec()))

    def test_fifo_first_eligible(self):
        q = self.make_jobs()
        assert self.first_started(q) == "1.t"

    def test_fifo_skips_non_queued(self):
        q = self.make_jobs()
        q.update(q.get("1.t").transition(JobState.HELD))
        assert self.first_started(q) == "2.t"

    def test_remove(self):
        q = self.make_jobs()
        q.remove("2.t")
        assert "2.t" not in q
        with pytest.raises(UnknownJobError):
            q.remove("2.t")

    def test_held_job_keeps_position(self):
        """PBS semantics: releasing a held job restores its FIFO slot."""
        q = self.make_jobs()
        q.update(q.get("1.t").transition(JobState.HELD))
        q.update(q.get("1.t").transition(JobState.QUEUED))
        assert self.first_started(q) == "1.t"

    def test_to_wire_since_is_the_jobs_changed_after_it_in_queue_order(self):
        q = self.make_jobs()
        assert q.generation == 3
        q.update(q.get("3.t").transition(JobState.HELD))
        q.update(q.get("1.t").transition(JobState.HELD))
        assert q.generation == 5
        rows = {job.job_id: job.wire_row for job in q}
        assert q.to_wire(3) == [rows["1.t"], rows["3.t"]]
        assert q.to_wire() == [rows["1.t"], rows["2.t"], rows["3.t"]]
        assert q.to_wire(5) == []


def _row(job_id: str, state: str, nodes: int = 1) -> JobRow:
    return Job(job_id, JobSpec(nodes=nodes), state=JobState(state)).stat_row()


class TestQueueView:
    def reply(self, epoch, generation, *rows):
        return SchedPollResp(
            tuple(_row(job_id, state) for job_id, state in rows),
            (), epoch, generation,
        )

    def test_a_delta_updates_in_place_appends_new_jobs_and_drops_complete_ones(self):
        view = QueueView()
        assert (view.request().epoch, view.request().since) == (0, 0)
        view.apply(self.reply(7, 3, ("1.t", "Q"), ("2.t", "Q"), ("3.t", "C")))
        view.apply(self.reply(7, 6, ("1.t", "R"), ("4.t", "Q")))
        assert [(r.job_id, r.state) for r in view.rows()] == [
            ("1.t", "R"), ("2.t", "Q"), ("4.t", "Q")]
        view.apply(self.reply(7, 7, ("2.t", "C")))
        assert [r.job_id for r in view.rows()] == ["1.t", "4.t"]
        assert (view.request().epoch, view.request().since) == (7, 7)

    def test_another_epoch_or_epoch_zero_replaces_the_copy(self):
        view = QueueView()
        view.apply(self.reply(7, 3, ("1.t", "Q"), ("2.t", "Q")))
        view.apply(self.reply(8, 1, ("2.t", "Q")))
        assert [r.job_id for r in view.rows()] == ["2.t"]
        view.apply(self.reply(0, 0, ("5.t", "Q")))
        view.apply(self.reply(0, 0, ("6.t", "Q")))
        assert [r.job_id for r in view.rows()] == ["6.t"]


class TestFifoDecide:
    def rows(self, *states, nodes=1):
        return [_row(f"{i}.t", s, nodes) for i, s in enumerate(states, start=1)]

    def free(self, *names):
        return [(n, True) for n in names]

    def test_picks_oldest_queued(self):
        decision = fifo_decide(self.rows("Q", "Q"), self.free("c0", "c1"))
        assert decision == ("1.t", ("c0",))

    def test_exclusive_blocks_when_running(self):
        rows = self.rows("R", "Q")
        assert fifo_decide(rows, self.free("c0", "c1")) is None

    def test_insufficient_nodes(self):
        rows = self.rows("Q", nodes=3)
        assert fifo_decide(rows, self.free("c0", "c1")) is None

    def test_multi_node_allocation_deterministic(self):
        rows = self.rows("Q", nodes=2)
        decision = fifo_decide(rows, self.free("c1", "c0"))
        assert decision == ("1.t", ("c0", "c1"))

    def test_empty_queue(self):
        assert fifo_decide([], self.free("c0")) is None

    def test_determinism_same_inputs_same_output(self):
        rows = self.rows("Q", "Q", "Q")
        free = self.free("c0", "c1")
        assert fifo_decide(rows, free) == fifo_decide(rows, free)

    def test_fifo_does_not_skip_big_job(self):
        """Strict FIFO: a large job at the head blocks smaller later ones
        (no backfill — deterministic behaviour the replicas rely on)."""
        rows = [_row("1.t", "Q", 3), _row("2.t", "Q", 1)]
        assert fifo_decide(rows, self.free("c0", "c1")) is None


class TestServiceTimes:
    def test_defaults_near_paper_baseline(self):
        t = ERA_2006
        # client + server processing + disk should land in the vicinity of
        # the paper's 98 ms qsub (round-trip network adds the rest).
        assert 0.08 < t.client_startup + t.qsub_process + t.disk_write < 0.11
