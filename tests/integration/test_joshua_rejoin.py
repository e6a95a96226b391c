"""A restarted head comes back in one marker round — and what it then holds.

The three restart defects the `failover` benchmark found (ROADMAP, PR 11):

(i)   a restarted head re-issued the multicast ids of its past life, the
      survivors skipped them as duplicates, and its first *m* transfer
      markers vanished, one per 4 × ``flush_timeout``;
(ii)  a sponsor that had itself rejoined inferred the job-id counter from
      the (live) rows it held, so a joiner it served started over at 1;
(iii) replay transfers live jobs only, so a rejoined head does not know the
      jobs that finished before its transfer — an explicit non-guarantee
      (PROTOCOLS.md §4.1), pinned here so a change to it is deliberate;
(iv)  a capture rebuilt each spec from its qstat row, which carries neither
      ``exit_status`` nor ``priority``, so a joiner replayed both as 0;
(v)   a joiner answered its mom's launch-mutex question before its capture
      was installed, so its own claim won in its table and lost in every
      other head's: with a mom that had lost the job, it ran twice.

CI runs this module a second time with ``REPRO_SANITIZE=1``.
"""

import pytest

from repro.analysis import wiretrace
from repro.joshua.mutex import MutexArbiter
from repro.pbs.job import JobSpec, JobState
from repro.util.errors import PBSError

from tests.integration.conftest import (
    FAST_GROUP,
    SANITIZE,
    assert_sanitizer_clean,
    drive,
    make_stack,
    settle,
)


@pytest.fixture
def stack():
    stack = make_stack(heads=3, sanitize=SANITIZE)
    yield stack
    assert_sanitizer_clean(stack.cluster.kernel)


def step_until(stack, condition, *, limit, step=0.05):
    """Advance in *step* slices until *condition()* holds; return the time."""
    kernel = stack.cluster.kernel
    deadline = kernel.now + limit
    while not condition():
        assert kernel.now < deadline, "condition never held"
        stack.cluster.run(until=kernel.now + step)
    return kernel.now


def background_load(stack, head, period=0.4):
    """One long-walltime jsub through *head* every *period*, forever."""
    client = stack.client(node="login", prefer=head)
    kernel = stack.cluster.kernel

    def load():
        index = 0
        while True:
            yield from client.jsub(name=f"load{index}", walltime=900)
            index += 1
            yield kernel.timeout(period)

    kernel.spawn(load())


class TestRejoinInOneMarkerRound:
    """Defect (i), end to end."""

    @pytest.mark.parametrize("kill", ["node", "daemon"])
    def test_gateway_head_is_active_right_after_its_view(self, stack, kill):
        client = stack.client(node="login", prefer="head0")
        for index in range(6):  # head0 multicasts ids 0..5 of its first life
            drive(stack, client.jsub(name=f"pre{index}", walltime=900))
        assert stack.joshua("head0").stats["commands"] >= 6
        node = stack.cluster.node("head0")
        background_load(stack, "head1")
        if kill == "node":
            node.crash()
            settle(stack, 3.0)
            node.restart()
        else:
            node.stop_daemon("joshua")
            settle(stack, 3.0)
            node.start_daemon("joshua")

        def in_view():
            view = stack.joshua("head0").group.view
            return view is not None and view.size == 3

        joined = step_until(stack, in_view, limit=10.0)
        active = step_until(stack, lambda: stack.joshua("head0").active,
                            limit=40 * FAST_GROUP.flush_timeout)
        # Before the fix: one skipped marker per earlier multicast, each
        # costing 4 × flush_timeout — at least 6 × 4 × 0.8 = 19.2 s here.
        assert active - joined <= 2 * FAST_GROUP.flush_timeout
        # ... and it really is a replica again.
        job_id = drive(stack, client.jsub(name="post", walltime=900))
        settle(stack, 1.0)
        for head in stack.head_names:
            assert job_id in stack.pbs(head).jobs


class TestJobCounterSurvivesRejoinedSponsor:
    """Defect (ii)."""

    def test_next_id_agrees_after_rolling_restart_and_join(self):
        stack = make_stack(heads=2, sanitize=SANITIZE)
        client = stack.client(node="login", prefer="head1")
        for index in range(3):
            drive(stack, client.jsub(name=f"early{index}", walltime=1.0))
        stack.cluster.run(until=30.0)  # every earlier job has finished
        assert all(j.state is JobState.COMPLETE for j in stack.pbs("head1").jobs)
        # Rolling restart: head0 rejoins through head1 (which holds the
        # finished rows), then head1 through head0 (which holds none).
        for head in ("head0", "head1"):
            node = stack.cluster.node(head)
            node.crash()
            settle(stack, 3.0)
            node.restart()
            # (A generous limit: with defect (i) unfixed this took 3 × 4 ×
            # flush_timeout, and this test is about what comes after.)
            step_until(stack, lambda: stack.joshua(head).active, limit=30.0)
        # A third head joins; both sponsors have themselves rejoined.
        stack.add_head()
        step_until(stack, lambda: stack.joshua("head2").active, limit=10.0)
        job_id = drive(stack, client.jsub(name="next", walltime=900))
        settle(stack, 1.0)
        assert job_id == "4.joshua"
        for head in stack.head_names:
            assert [j.job_id for j in stack.pbs(head).jobs] == [job_id]
        assert_sanitizer_clean(stack.cluster.kernel)


class TestFinishedJobsAreNotTransferred:
    """Defect (iii): stated, not fixed — PROTOCOLS.md §4.1."""

    def test_by_id_jstat_of_a_finished_job_on_a_rejoined_head(self, stack):
        client = stack.client(node="login", prefer="head1")
        done_id = drive(stack, client.jsub(name="done", walltime=1.0))
        stack.cluster.run(until=20.0)
        assert stack.pbs("head1").jobs.get(done_id).state is JobState.COMPLETE
        node = stack.cluster.node("head0")
        node.crash()
        settle(stack, 3.0)
        node.restart()
        step_until(stack, lambda: stack.joshua("head0").active, limit=10.0)
        # The veterans still know the job; the rejoined head never will.
        assert done_id in stack.pbs("head1").jobs
        assert done_id not in stack.pbs("head0").jobs
        # An ordered by-id jstat is answered by the gateway head from its
        # own replica: a veteran says "C", the rejoined head "Unknown Job
        # Id" — which a client is to read as "finished" (SNIPPETS.md §3).
        veteran = stack.client(node="login", prefer="head1")
        assert drive(stack, veteran.jstat(done_id))[0].state == "C"
        rejoined = stack.client(node="login", prefer="head0")
        with pytest.raises(PBSError, match="Unknown Job Id"):
            drive(stack, rejoined.jstat(done_id))
        # The local read path answers from the same replica: the same in
        # ``ryw`` mode, which is what a gateway session pinned here sees.
        session = stack.gateway().session("login", "pinned-to-head0")
        session.client.prefer = session.head = "head0"
        with pytest.raises(PBSError, match="Unknown Job Id"):
            drive(stack, session.jstat(done_id))
        assert done_id not in [row.job_id for row in drive(stack, session.jstat())]
        # The id is never handed out again on any head (defect (ii)).
        next_id = drive(stack, rejoined.jsub(name="later", walltime=900))
        assert next_id != done_id


class TestReplayKeepsTheSubmittedSpec:
    """Defect (iv)."""

    def test_joiner_runs_a_transferred_job_with_its_exit_status(self):
        stack = make_stack(heads=2, computes=1, sanitize=SANITIZE)
        client = stack.client(node="login", prefer="head0")
        drive(stack, client.jsub(name="a", walltime=30))
        stack.cluster.node("head1").crash()
        spec = JobSpec(name="b", walltime=1, exit_status=3, priority=5)
        job_id = drive(stack, client.jsub(spec))
        stack.cluster.node("head1").restart()
        settle(stack, 5.0)
        assert stack.pbs("head1").jobs.get(job_id).spec == spec
        # The sponsor goes: the joiner launches the job from its replay.
        stack.cluster.node("head0").crash()
        settle(stack, 60.0)
        job = stack.pbs("head1").jobs.get(job_id)
        assert job.state is JobState.COMPLETE
        assert job.exit_status == 3
        assert_sanitizer_clean(stack.cluster.kernel)


class TestJoinerDecidesNoLaunch:
    """(v): every head's launch-mutex table names one winner per claim."""

    def test_every_head_records_the_same_winner(self, monkeypatch):
        winners: dict[str, set[str]] = {}
        on_claim = MutexArbiter.on_claim

        def spy(arbiter, claim):
            on_claim(arbiter, claim)
            winners.setdefault(claim.job_id, set()).add(
                arbiter.entries[claim.job_id].winner)

        monkeypatch.setattr(MutexArbiter, "on_claim", spy)
        # head0 crashes and rejoins while its scheduler still holds
        # 2.joshua queued, and asks its own joshua before the transfer.
        wiretrace.SCENARIOS["membership"](wiretrace.make_stack(1))
        assert len(winners) >= 5
        assert {job: w for job, w in winners.items() if len(w) > 1} == {}
