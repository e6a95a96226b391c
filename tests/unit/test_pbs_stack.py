"""Integration-style tests of the full single-head PBS stack."""

import pytest

from repro.cluster import Cluster
from repro.net.address import Address
from repro.pbs import JobSpec, JobState, PBSMom, build_pbs_stack
from repro.pbs.server import PBS_MOM_PORT, PBS_SERVER_PORT, PBSServer
from repro.pbs.wire import PurgeReq, RunJobReq, SubmitReq
from repro.rpc import RpcTimeout, call as rpc_call
from repro.util.errors import PBSError
from tests.integration.conftest import SANITIZE, assert_sanitizer_clean


@pytest.fixture
def stack():
    cluster = Cluster(head_count=1, compute_count=2, seed=21)
    return build_pbs_stack(cluster)


def drive(stack, coroutine):
    """Run a client coroutine to completion, return its value."""
    process = stack.cluster.kernel.spawn(coroutine)
    return stack.cluster.run(until=process)


class TestSubmission:
    def test_qsub_returns_job_id(self, stack):
        job_id = drive(stack, stack.client().qsub(name="hello", walltime=5))
        assert job_id == "1.torque"

    def test_sequential_ids(self, stack):
        client = stack.client()
        ids = [drive(stack, client.qsub(name=f"j{i}", walltime=5)) for i in range(3)]
        assert ids == ["1.torque", "2.torque", "3.torque"]

    def test_qsub_latency_near_paper_baseline(self, stack):
        """Figure 10 anchor: plain TORQUE qsub ≈ 98 ms on the testbed."""
        kernel = stack.cluster.kernel
        client = stack.client()
        start = kernel.now
        drive(stack, client.qsub(name="t", walltime=5))
        latency = kernel.now - start
        assert 0.085 <= latency <= 0.115, f"qsub took {latency*1000:.1f} ms"

    def test_qstat_shows_submitted_job(self, stack):
        client = stack.client()
        job_id = drive(stack, client.qsub(name="visible", walltime=500))
        rows = drive(stack, client.qstat(None))
        assert [r["job_id"] for r in rows] == [job_id]

    def test_qstat_single_job(self, stack):
        client = stack.client()
        job_id = drive(stack, client.qsub(name="one", walltime=500))
        [row] = drive(stack, client.qstat(job_id))
        assert row["name"] == "one"

    def test_qstat_unknown_job(self, stack):
        with pytest.raises(PBSError, match="Unknown Job Id"):
            drive(stack, stack.client().qstat("99.torque"))

    def test_submit_from_compute_node(self, stack):
        job_id = drive(stack, stack.client(node="compute0").qsub(name="remote"))
        assert job_id == "1.torque"


class TestExecution:
    def test_job_runs_to_completion(self, stack):
        client = stack.client()
        job_id = drive(stack, client.qsub(name="quick", walltime=2.0))
        stack.cluster.run(until=10.0)
        [row] = drive(stack, client.qstat(job_id))
        assert row["state"] == "C"
        assert row["exit_status"] == 0
        assert stack.moms[0].stats["runs"] + stack.moms[1].stats["runs"] == 1

    def test_fifo_execution_order(self, stack):
        client = stack.client()
        ids = [drive(stack, client.qsub(name=f"j{i}", walltime=1.0)) for i in range(3)]
        stack.cluster.run(until=30.0)
        starts = {r.job_id: r.time for r in stack.server.accounting.events("S")}
        assert starts[ids[0]] < starts[ids[1]] < starts[ids[2]]

    def test_exclusive_one_job_at_a_time(self, stack):
        client = stack.client()
        for i in range(2):
            drive(stack, client.qsub(name=f"j{i}", walltime=5.0, nodes=1))
        stack.cluster.run(until=4.0)
        rows = drive(stack, client.qstat(None))
        running = [r for r in rows if r["state"] == "R"]
        queued = [r for r in rows if r["state"] == "Q"]
        assert len(running) == 1 and len(queued) == 1

    def test_multi_node_job(self, stack):
        client = stack.client()
        job_id = drive(stack, client.qsub(name="big", walltime=2.0, nodes=2))
        stack.cluster.run(until=10.0)
        [row] = drive(stack, client.qstat(job_id))
        assert row["state"] == "C"
        assert sorted(row["exec_nodes"]) == ["compute0", "compute1"]

    def test_nonzero_exit_status_reported(self, stack):
        client = stack.client()
        job_id = drive(stack, client.qsub(JobSpec(name="bad", walltime=1.0, exit_status=3)))
        stack.cluster.run(until=10.0)
        [row] = drive(stack, client.qstat(job_id))
        assert row["exit_status"] == 3

    def test_accounting_lifecycle(self, stack):
        client = stack.client()
        job_id = drive(stack, client.qsub(name="acct", walltime=1.0))
        stack.cluster.run(until=10.0)
        events = [r.event for r in stack.server.accounting.for_job(job_id)]
        assert events == ["Q", "S", "E"]


class TestDeleteHoldSignal:
    def test_qdel_queued_job(self, stack):
        client = stack.client()
        # A long blocker keeps the cluster busy (exclusive policy) so the
        # second job is still queued when we delete it.
        drive(stack, client.qsub(name="blocker", walltime=500))
        job_id = drive(stack, client.qsub(name="doomed", walltime=500))
        drive(stack, client.qdel(job_id))
        [row] = drive(stack, client.qstat(job_id))
        assert row["state"] == "C"
        assert row["comment"] == "deleted by user"

    def test_qdel_running_job_kills_it(self, stack):
        client = stack.client()
        job_id = drive(stack, client.qsub(name="victim", walltime=500))
        stack.cluster.run(until=2.0)  # let it start
        drive(stack, client.qdel(job_id))
        stack.cluster.run(until=10.0)
        [row] = drive(stack, client.qstat(job_id))
        assert row["state"] == "C"
        assert row["exit_status"] == 271

    def test_qdel_unknown(self, stack):
        with pytest.raises(PBSError, match="Unknown Job Id"):
            drive(stack, stack.client().qdel("42.torque"))

    def test_qdel_completed_rejected(self, stack):
        client = stack.client()
        job_id = drive(stack, client.qsub(name="done", walltime=0.5))
        stack.cluster.run(until=10.0)
        with pytest.raises(PBSError, match="Request invalid"):
            drive(stack, client.qdel(job_id))

    def test_hold_prevents_start_release_allows(self, stack):
        client = stack.client()
        blocker = drive(stack, client.qsub(name="blocker", walltime=1.0))
        job_id = drive(stack, client.qsub(name="held", walltime=1.0))
        drive(stack, client.qhold(job_id))
        stack.cluster.run(until=3.0)
        [row] = drive(stack, client.qstat(job_id))
        assert row["state"] == "H"
        drive(stack, client.qrls(job_id))
        stack.cluster.run(until=8.0)
        [row] = drive(stack, client.qstat(job_id))
        assert row["state"] == "C"

    def test_qsig_running_job(self, stack):
        client = stack.client()
        job_id = drive(stack, client.qsub(name="sig", walltime=500))
        stack.cluster.run(until=2.0)
        detail = drive(stack, client.qsig(job_id, "SIGUSR1"))
        assert "SIGUSR1" in detail

    def test_qrerun_requeues_running_job(self, stack):
        client = stack.client()
        job_id = drive(stack, client.qsub(name="rerun-me", walltime=500))
        stack.cluster.run(until=2.0)  # running
        drive(stack, client.qrerun(job_id))
        [row] = drive(stack, client.qstat(job_id))
        assert row["state"] == "Q"
        assert "qrerun" in row["comment"]

    def test_qrerun_queued_job_rejected(self, stack):
        client = stack.client()
        drive(stack, client.qsub(name="blocker", walltime=500))
        job_id = drive(stack, client.qsub(name="still-q", walltime=500))
        stack.cluster.run(until=stack.cluster.kernel.now + 1.0)
        with pytest.raises(PBSError, match="Request invalid"):
            drive(stack, client.qrerun(job_id))

    def test_qsig_queued_job_rejected(self, stack):
        client = stack.client()
        drive(stack, client.qsub(name="blocker", walltime=500))
        job_id = drive(stack, client.qsub(name="sig", walltime=500))
        stack.cluster.run(until=stack.cluster.kernel.now + 1.0)
        with pytest.raises(PBSError):
            drive(stack, client.qsig(job_id, "SIGTERM"))


def request(stack, payload):
    """One request from compute0 straight to the server."""
    return drive(stack, rpc_call(
        stack.cluster.network, "compute0", stack.server_address, payload))


class TestForcedJobId:
    def test_duplicate_or_non_positive_forced_id_is_refused(self, stack):
        """A forced id already queued was answered "unknown-job" after the
        counter had moved; "0.x" and "-3.x" were accepted."""
        assert request(stack, SubmitReq(JobSpec(), force_job_id="5.torque")).job_id == "5.torque"
        server = stack.server
        for forced in ("5.torque", "0.x", "-3.x", "abc", ".x", "05.torque", "7."):
            with pytest.raises(PBSError) as refused:
                request(stack, SubmitReq(JobSpec(), force_job_id=forced))
            assert refused.value.kind == "pbs-error", forced
            assert [job.job_id for job in server.jobs] == ["5.torque"]
            assert server.next_seq == 6
        assert request(stack, SubmitReq(JobSpec())).job_id == "6.torque"


class TestFrontDoor:
    """Malformed requests sent straight to pbs_server's port are refused
    before anything changes; each of these once crashed the server process
    (and with it the run) or, for a string, ran the job on its letters."""

    @pytest.fixture
    def door(self):
        # Server and moms only: no Maui racing the test's own RunJobReq.
        cluster = Cluster(head_count=1, compute_count=2, seed=3, login_node=True)
        head = cluster.heads[0]
        address = Address(head.name, PBS_SERVER_PORT)
        moms = [Address(c.name, PBS_MOM_PORT) for c in cluster.computes]
        head.add_daemon("pbs_server", lambda node: PBSServer(node, moms=moms))
        for compute in cluster.computes:
            compute.add_daemon(
                "pbs_mom", lambda node: PBSMom(node, servers=[address]))

        def call(payload):
            process = cluster.kernel.spawn(rpc_call(
                cluster.network, "login", address, payload))
            return cluster.run(until=process)

        assert call(SubmitReq(JobSpec(name="good"))).job_id == "1.torque"
        return cluster, head, call

    @pytest.mark.parametrize("spec", [None, "spec"], ids=["none", "str"])
    def test_submit_without_a_job_spec_is_refused(self, door, spec):
        cluster, head, call = door
        server = head.daemon("pbs_server")
        with pytest.raises(PBSError) as refused:
            call(SubmitReq(spec))
        assert refused.value.kind == "pbs-error"
        assert [job.job_id for job in server.jobs] == ["1.torque"]
        assert server.next_seq == 2
        assert call(SubmitReq(JobSpec(name="after"))).job_id == "2.torque"
        assert call(RunJobReq("1.torque", ("compute0",))).ok

    @pytest.mark.parametrize(
        "exec_nodes", [None, (), (["compute0"],), "compute0"],
        ids=["none", "empty", "list-inside", "str"],
    )
    def test_run_without_a_tuple_of_node_names_is_refused(self, door, exec_nodes):
        cluster, head, call = door
        server = head.daemon("pbs_server")
        response = call(RunJobReq("1.torque", exec_nodes))
        assert not response.ok
        assert "exec nodes" in response.detail
        assert server.jobs.get("1.torque").state is JobState.QUEUED
        assert set(server.allocations.values()) == {None}
        assert call(SubmitReq(JobSpec(name="after"))).job_id == "2.torque"
        started = call(RunJobReq("1.torque", ("compute0",)))
        assert started.ok
        assert server.jobs.get("1.torque").state is JobState.RUNNING


class TestAdminPurge:
    def test_purge_outside_the_stripe_space_is_refused(self, stack):
        client = stack.client()
        ids = [drive(stack, client.qsub(name=f"j{i}", walltime=500)) for i in range(3)]
        server = stack.server
        next_seq = server.next_seq
        # A negative stride once fell through to the full wipe; a lane no
        # job can be in once answered "purged 0 jobs".
        for stride, lane in ((-1, 0), (2, 5)):
            with pytest.raises(PBSError) as refused:
                request(stack, PurgeReq(stride, lane))
            assert refused.value.kind == "pbs-error"
            assert [job.job_id for job in server.jobs] == ids
            assert server.next_seq == next_seq
        assert request(stack, SubmitReq(JobSpec(name="after"))).job_id == "4.torque"

    def test_stride_one_purges_every_job_and_keeps_the_counter(self, stack):
        client = stack.client()
        for i in range(3):
            drive(stack, client.qsub(name=f"j{i}", walltime=500))
        assert request(stack, PurgeReq(1, 0)).detail == "purged 3 jobs"
        assert len(stack.server.jobs) == 0
        assert drive(stack, client.qsub(name="next")) == "4.torque"


class TestCrashRecovery:
    def test_server_recovers_queue_from_disk(self, stack):
        cluster = stack.cluster
        client = stack.client(node="compute0")
        ids = [drive(stack, client.qsub(name=f"j{i}", walltime=300)) for i in range(3)]
        head = cluster.heads[0]
        head.crash()
        cluster.run(until=cluster.kernel.now + 1.0)
        head.restart()
        server = head.daemon("pbs_server")
        assert sorted(j.job_id for j in server.jobs) == sorted(ids)

    def test_running_job_requeued_after_recovery(self, stack):
        cluster = stack.cluster
        client = stack.client(node="compute0")
        job_id = drive(stack, client.qsub(name="restartme", walltime=30))
        cluster.run(until=2.0)  # job starts
        head = cluster.heads[0]
        assert head.daemon("pbs_server").jobs.get(job_id).state is JobState.RUNNING
        head.crash()
        cluster.run(until=3.0)
        head.restart()
        server = head.daemon("pbs_server")
        job = server.jobs.get(job_id)
        assert job.state is JobState.QUEUED
        assert "requeued" in job.comment
        # The application restarts: it runs again from scratch.
        cluster.run(until=60.0)
        job = server.jobs.get(job_id)
        assert job.state is JobState.COMPLETE
        assert job.run_count >= 1

    def test_job_being_killed_is_requeued_after_recovery(self, stack):
        """Regression (found by the restart-from-disk state machine):
        EXITING -> QUEUED is no legal *command* transition, and recovery
        went through ``Job.transition`` — a head that crashed with a qdel
        in flight could not start its server again."""
        cluster = stack.cluster
        client = stack.client()
        job_id = drive(stack, client.qsub(name="doomed", walltime=300))
        cluster.run(until=2.0)  # job starts
        head = cluster.heads[0]
        job = head.daemon("pbs_server").jobs.get(job_id)
        # The mother superior dies: the kill never lands, no obit comes.
        cluster.node(job.exec_nodes[0]).crash()
        with pytest.raises(PBSError):
            drive(stack, client.qdel(job_id))
        assert head.daemon("pbs_server").jobs.get(job_id).state is JobState.EXITING
        head.crash()
        head.restart()
        job = head.daemon("pbs_server").jobs.get(job_id)
        assert job.state is JobState.QUEUED
        assert "requeued" in job.comment

    def test_recovered_queue_keeps_its_order(self, stack):
        """Job records are written one at a time and keyed by id, so disk
        order ("10.torque" < "2.torque") is not queue order: recovery must
        sort by the persisted queue rank."""
        cluster = stack.cluster
        client = stack.client(node="compute0")
        ids = [drive(stack, client.qsub(name=f"j{i}", walltime=300)) for i in range(11)]
        drive(stack, client.qhold(ids[3]))  # rewriting a record keeps its rank
        head = cluster.heads[0]
        head.crash()
        head.restart()
        assert [j.job_id for j in head.daemon("pbs_server").jobs] == ids

    def test_client_times_out_when_head_down(self, stack):
        cluster = stack.cluster
        cluster.heads[0].crash()
        client = stack.client(node="compute0", timeout=0.5, retries=0)
        with pytest.raises(RpcTimeout):
            drive(stack, client.qsub(name="nope"))

    def test_duplicate_obit_ignored(self, stack):
        client = stack.client()
        job_id = drive(stack, client.qsub(name="once", walltime=1.0))
        stack.cluster.run(until=10.0)
        assert stack.server.stats["completed"] == 1


class TestSchedulerView:
    def test_server_restarted_under_a_live_maui(self):
        """Maui keeps its copy of the queue across a pbs_server restart. The
        restarted server's mutation count starts over, so only its new
        epoch makes Maui drop the copy and read the table again: keyed on
        the count alone, Maui's next poll asks for the changes after a
        count the new server reaches only with the job submitted after the
        restart, and that job never starts."""
        cluster = Cluster(head_count=1, compute_count=2, seed=21, sanitize=SANITIZE)
        stack = build_pbs_stack(cluster)
        client = stack.client()
        runner = drive(stack, client.qsub(name="runner", walltime=3.0))
        held = [drive(stack, client.qsub(name=f"h{i}", walltime=0.5)) for i in range(2)]
        cluster.run(until=1.0)
        maui = stack.head.daemon("maui")
        assert list(maui.view.jobs) == [runner, *held]
        assert maui.view.jobs[runner]["state"] == "R"
        stack.head.stop_daemon("pbs_server")
        cluster.run(until=1.5)  # Maui's poll in flight goes unanswered
        server = stack.head.start_daemon("pbs_server")
        behind = drive(stack, client.qsub(name="behind", walltime=0.5))
        cluster.run(until=10.0)
        log = [(r.event, r.job_id) for r in server.accounting.records]
        assert [job for event, job in log if event == "S"] == [*held, behind]
        assert log.index(("S", behind)) > log.index(("E", runner))
        assert server.jobs.get(behind).state is JobState.COMPLETE
        assert sum(mom.stats["runs"] for mom in stack.moms) == 4
        assert_sanitizer_clean(cluster.kernel)


class TestMomBehaviour:
    def test_mom_rejects_duplicate_start_without_hooks(self, stack):
        """Plain TORQUE: a second start attempt for a running job fails."""
        cluster = stack.cluster
        client = stack.client()
        job_id = drive(stack, client.qsub(name="dup", walltime=50))
        cluster.run(until=2.0)
        mom = stack.moms[0] if stack.moms[0].active else stack.moms[1]
        from repro.pbs.wire import JobStartReq
        record = next(iter(mom.active.values()))

        def dup_attempt():
            response = yield from rpc_call(
                cluster.network, "head0", mom.address,
                JobStartReq(job_id, record.req.spec, record.req.exec_nodes,
                            Address("head0", 1)),
            )
            return response

        process = cluster.kernel.spawn(dup_attempt())
        response = cluster.run(until=process)
        assert response.ok is False
        assert mom.stats["rejections"] == 1

    def test_job_finishing_during_prologue_is_emulated(self):
        """Regression: a start attempt whose prologue outlives the job.

        The mom checks `finished` before running the prologue and `active`
        after it — but a slow prologue (jmutex is an RPC) spans real time.
        A job that completes inside that window used to slip past both
        guards and really execute a second time."""
        cluster = Cluster(head_count=1, compute_count=1, seed=9)
        stack = build_pbs_stack(cluster)
        mom = stack.moms[0]
        calls = []

        def slow_second_prologue(mom_, req):
            calls.append(req.job_id)
            if len(calls) > 1:
                # Long enough for the running job (walltime 0.5) to finish.
                yield mom_.kernel.timeout(2.0)
            else:
                yield mom_.kernel.timeout(0.001)
            return "run"

        mom.prologue_hooks.append(slow_second_prologue)
        client = stack.client()
        job_id = drive(stack, client.qsub(name="short", walltime=0.5))
        cluster.run(until=0.3)  # first attempt is through; job is running
        from repro.pbs.wire import JobStartReq
        record = mom.active[job_id]

        def dup_attempt():
            response = yield from rpc_call(
                cluster.network, "head0", mom.address,
                JobStartReq(job_id, record.req.spec, record.req.exec_nodes,
                            Address("head0", 1)),
                timeout=10.0,
            )
            return response

        process = cluster.kernel.spawn(dup_attempt())
        response = cluster.run(until=process)
        assert response.ok is True
        assert response.mode == "emulate"
        assert mom.stats["runs"] == 1
        assert mom.stats["emulations"] == 1

    def test_prologue_hook_can_emulate(self):
        cluster = Cluster(head_count=1, compute_count=1, seed=3)

        def always_emulate(mom, req):
            yield mom.kernel.timeout(0.001)
            return "emulate"

        stack = build_pbs_stack(cluster)
        stack.moms[0].prologue_hooks.append(always_emulate)
        client = stack.client()
        drive(stack, client.qsub(name="ghost", walltime=1.0))
        cluster.run(until=5.0)
        assert stack.moms[0].stats["emulations"] == 1
        assert stack.moms[0].stats["runs"] == 0

    def test_mom_crash_loses_job(self, stack):
        """Paper §5: mom failures are out of scope — the job is lost and the
        server keeps it R (no obituary ever arrives)."""
        cluster = stack.cluster
        client = stack.client()
        job_id = drive(stack, client.qsub(name="lost", walltime=5.0))
        cluster.run(until=2.0)
        busy = [c for c in cluster.computes if cluster.node(c.name).daemon("pbs_mom").active]
        busy[0].crash()
        cluster.run(until=20.0)
        [row] = drive(stack, client.qstat(job_id))
        assert row["state"] == "R"  # stuck, as the paper observed
