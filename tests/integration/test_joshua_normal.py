"""JOSHUA normal operation: replication, determinism, exactly-once."""

import pytest

from repro.cluster import Cluster
from repro.pbs.job import JobState
from repro.pbs import stack as pbs_stack
from repro.pbs.stack import build_pbs_stack
from repro.util.errors import NoActiveHeadError, PBSError

from tests.integration.conftest import drive, make_stack, settle, total_runs


class TestReplicatedSubmission:
    def test_jsub_returns_job_id(self, stack):
        job_id = drive(stack, stack.client().jsub(name="hello", walltime=2.0))
        assert job_id == "1.joshua"

    def test_all_heads_know_the_job(self, stack):
        job_id = drive(stack, stack.client().jsub(name="hello", walltime=300.0))
        settle(stack, 1.0)
        for head in stack.head_names:
            assert job_id in stack.pbs(head).jobs

    def test_identical_job_ids_across_heads(self, stack):
        client = stack.client()
        ids = [drive(stack, client.jsub(name=f"j{i}", walltime=300)) for i in range(3)]
        settle(stack, 1.0)
        for head in stack.head_names:
            assert sorted(j.job_id for j in stack.pbs(head).jobs) == sorted(ids)

    def test_replica_queues_identical_order(self, stack):
        client = stack.client()
        for i in range(4):
            drive(stack, client.jsub(name=f"j{i}", walltime=900))
        settle(stack, 1.0)
        snapshots = [
            [(j.job_id, j.spec.name) for j in stack.pbs(h).jobs]
            for h in stack.head_names
        ]
        assert snapshots[0] == snapshots[1]

    def test_concurrent_clients_identical_order(self):
        """Two users submit simultaneously from different nodes; the total
        order makes every replica agree on who came first."""
        stack = make_stack(heads=3)
        kernel = stack.cluster.kernel
        c1 = stack.client(node="compute0", prefer="head0")
        c2 = stack.client(node="compute1", prefer="head1")
        p1 = kernel.spawn(c1.jsub(name="alice", walltime=900))
        p2 = kernel.spawn(c2.jsub(name="bob", walltime=900))
        stack.cluster.run(until=kernel.all_of([p1, p2]))
        settle(stack, 1.0)
        orders = [
            [j.spec.name for j in stack.pbs(h).jobs] for h in stack.head_names
        ]
        assert orders[0] == orders[1] == orders[2]
        assert sorted(orders[0]) == ["alice", "bob"]

    def test_jstat_reflects_replicated_queue(self, stack):
        client = stack.client(node="login")
        job_id = drive(stack, client.jsub(name="watched", walltime=300))
        rows = drive(stack, client.jstat())
        assert [r.job_id for r in rows] == [job_id]

    def test_jdel_running_job_killed_once_everywhere(self, stack):
        """jdel of a RUNNING job: every replica's delete handler asks the
        mom to kill it — the kill is idempotent, the single obituary (exit
        271) completes the job on every head."""
        client = stack.client()
        job_id = drive(stack, client.jsub(name="kill-me", walltime=600))
        settle(stack, 3.0)  # running on a mom
        drive(stack, client.jdel(job_id))
        settle(stack, 6.0)
        kills = sum(stack.mom(c.name).stats["kills"] for c in stack.cluster.computes)
        assert kills == 1  # idempotent despite replicated delete handling
        for head in stack.head_names:
            job = stack.pbs(head).jobs.get(job_id)
            assert job.state is JobState.COMPLETE
            assert job.exit_status == 271

    def test_jdel_removes_everywhere(self, stack):
        client = stack.client()
        drive(stack, client.jsub(name="blocker", walltime=900))
        job_id = drive(stack, client.jsub(name="target", walltime=900))
        drive(stack, client.jdel(job_id))
        settle(stack, 1.0)
        for head in stack.head_names:
            assert stack.pbs(head).jobs.get(job_id).state is JobState.COMPLETE

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 12: a jdel while the launch waits on the mom (the "
        "prologue's claim round) takes the queued-job path, so the "
        "allocation is never freed and the launch is never killed"))
    def test_jdel_right_after_jsub_frees_the_node(self):
        """The server keeps a job QUEUED while it waits for the mom, and
        under JOSHUA that wait includes the prologue's SAFE claim round. A
        jdel acknowledged inside it completes the job, but the compute node
        stays allocated, the mom keeps running the launch, and the next job
        never starts. Waiting 0.05 s before the jdel avoids it."""
        stack = make_stack(heads=2, computes=1, seed=11)
        settle(stack, 1.0)
        client = stack.client(node="login", prefer="head0")
        victim = drive(stack, client.jsub(name="victim", walltime=600))
        drive(stack, client.jdel(victim))
        second = drive(stack, client.jsub(name="second", walltime=5))
        settle(stack, 20.0)
        for head in stack.head_names:
            pbs = stack.pbs(head)
            assert pbs.jobs.get(victim).state is JobState.COMPLETE
            assert pbs.allocations["compute0"] != victim, head
            assert pbs.jobs.get(second).state is not JobState.QUEUED, head
        assert victim not in stack.mom("compute0").active

    def test_pbs_error_kind_relayed_as_through_plain_pbs(self, stack, monkeypatch):
        """A PBS failure reaches the JOSHUA client with the kind and text
        plain PBS gives its own client, not flattened to ``pbs-error`` with
        the real kind inside the text: deleting a finished job is
        ``bad-state``, deleting an id no head knows is ``unknown-job``."""
        def failure(run, command):
            with pytest.raises(PBSError) as err:
                run(command)
            return err.value.kind, err.value.message

        plain_cluster = Cluster(head_count=1, compute_count=2, login_node=True, seed=11)
        monkeypatch.setattr(pbs_stack, "SERVER_NAME", "joshua")
        plain = build_pbs_stack(plain_cluster)
        qclient = plain.client(node="login")
        def run_plain(command):
            return plain_cluster.run(until=plain_cluster.kernel.spawn(command))
        finished = run_plain(qclient.qsub(name="brief", walltime=1.0))
        plain_cluster.run(until=20.0)

        jclient = stack.client(node="login")
        assert drive(stack, jclient.jsub(name="brief", walltime=1.0)) == finished
        stack.cluster.run(until=20.0)
        for job_id, kind in ((finished, "bad-state"), ("99.joshua", "unknown-job")):
            relayed = failure(lambda c: drive(stack, c), jclient.jdel(job_id))
            assert relayed == failure(run_plain, qclient.qdel(job_id))
            assert relayed[0] == kind

    def test_commands_from_login_node(self, stack):
        job_id = drive(stack, stack.client(node="login").jsub(name="remote"))
        assert job_id.endswith(".joshua")

    def test_client_requires_heads(self, stack):
        from repro.joshua import JoshuaClient
        with pytest.raises(NoActiveHeadError):
            JoshuaClient(stack.cluster.network, "login", [])


class TestExactlyOnceExecution:
    def test_job_runs_exactly_once_with_two_heads(self, stack):
        drive(stack, stack.client().jsub(name="once", walltime=2.0))
        stack.cluster.run(until=30.0)
        assert total_runs(stack) == 1

    def test_job_runs_exactly_once_with_four_heads(self):
        stack = make_stack(heads=4)
        drive(stack, stack.client().jsub(name="once", walltime=2.0))
        stack.cluster.run(until=40.0)
        assert total_runs(stack) == 1
        # The other heads' start attempts were emulated, not rejected.
        emulations = sum(
            stack.mom(c.name).stats["emulations"] for c in stack.cluster.computes
        )
        assert emulations == 3

    def test_every_head_sees_completion(self, stack):
        job_id = drive(stack, stack.client().jsub(name="done", walltime=2.0))
        stack.cluster.run(until=30.0)
        for head in stack.head_names:
            job = stack.pbs(head).jobs.get(job_id)
            assert job.state is JobState.COMPLETE
            assert job.exit_status == 0

    def test_stream_of_jobs_all_run_once(self, stack):
        client = stack.client()
        ids = [drive(stack, client.jsub(name=f"s{i}", walltime=1.0)) for i in range(5)]
        stack.cluster.run(until=60.0)
        assert total_runs(stack) == 5
        for head in stack.head_names:
            for job_id in ids:
                assert stack.pbs(head).jobs.get(job_id).state is JobState.COMPLETE

    def test_fifo_order_preserved_under_replication(self, stack):
        client = stack.client()
        ids = [drive(stack, client.jsub(name=f"f{i}", walltime=1.0)) for i in range(3)]
        stack.cluster.run(until=40.0)
        for head in stack.head_names:
            starts = [stack.pbs(head).jobs.get(job_id).start_time for job_id in ids]
            assert starts[0] < starts[1] < starts[2]

    def test_mutex_released_after_completion(self, stack):
        job_id = drive(stack, stack.client().jsub(name="rel", walltime=1.0))
        stack.cluster.run(until=30.0)
        for head in stack.head_names:
            arbiter = stack.joshua(head).shard_for_job(job_id).arbiter
            assert job_id not in arbiter.entries


class TestOutputDedup:
    def test_retry_same_uuid_returns_cached_result(self, stack):
        """A client retry (same uuid) must not double-submit."""
        from repro.joshua.wire import JSubReq
        from repro.pbs.job import JobSpec
        from repro.rpc import call as rpc_call
        from repro.net.address import Address

        net = stack.cluster.network
        req = JSubReq("fixed-uuid-1", JobSpec(name="dedup", walltime=900))

        def twice():
            first = yield from rpc_call(net, "login", Address("head0", 4412), req)
            second = yield from rpc_call(net, "login", Address("head1", 4412), req)
            return first, second

        process = stack.cluster.kernel.spawn(twice())
        first, second = stack.cluster.run(until=process)
        assert first.job_id == second.job_id
        settle(stack, 1.0)
        assert len(stack.pbs("head0").jobs) == 1

    def test_uuid_cached_result_survives_execution(self, stack):
        client = stack.client()
        job_id = drive(stack, client.jsub(name="a", walltime=900))
        joshua = stack.joshua("head0")
        cached = [v for v in joshua.results.values()]
        assert any(getattr(v, "job_id", None) == job_id for v in cached)


class TestFrontDoor:
    """Outside input at JOSHUA's port is refused with ``bad-request``,
    never crashes the daemon, and leaves the service taking jobs."""

    @staticmethod
    def ask(stack, payload):
        from repro.joshua.wire import JOSHUA_PORT
        from repro.net.address import Address
        from repro.rpc import call as rpc_call

        net = stack.cluster.network
        return drive(stack, rpc_call(net, "login", Address("head0", JOSHUA_PORT),
                                     payload))

    def assert_refused(self, stack, payload):
        with pytest.raises(PBSError) as info:
            self.ask(stack, payload)
        assert info.value.kind == "bad-request"

    def assert_still_serving(self, stack):
        client = stack.client()
        job_id = drive(stack, client.jsub(name="after", walltime=900))
        settle(stack, 1.0)
        for head in stack.head_names:
            assert job_id in stack.pbs(head).jobs

    @pytest.mark.parametrize("spec", [None, "spec"], ids=["none", "str"])
    def test_jsub_without_a_job_spec_is_refused(self, spec):
        from repro.joshua.wire import JSubReq

        stack = make_stack(heads=2, seed=5)
        self.assert_refused(stack, JSubReq("front-door-1", spec))
        self.assert_still_serving(stack)

    @pytest.mark.parametrize("min_seq", [((0, "x"),), ((0,),), (("a", 1, 2),)],
                             ids=["str-seq", "single", "triple"])
    def test_ryw_stat_with_malformed_floors_is_refused(self, min_seq):
        from repro.joshua.wire import JStatReq

        stack = make_stack(heads=2, seed=5)
        self.assert_refused(stack, JStatReq("front-door-2", None, "ryw", min_seq))
        self.assert_still_serving(stack)

    @pytest.mark.parametrize("request_", [
        *[("pbs", kind) for kind in ("DeleteReq", "StatReq", "HoldReq",
                                     "ReleaseReq", "RerunReq", "SignalReq")],
        ("joshua", "JDelReq"), ("joshua", "JStatReq"), ("joshua", "ryw"),
    ], ids=lambda request: request[1])
    def test_unhashable_job_id_is_an_unknown_job(self, request_):
        """A job id that is a list, not a string, once raised ``TypeError``
        in ``JobQueue.get`` and crashed ``pbs_server`` (on the ordered path,
        every head's): each head's PBS, and JOSHUA's ordered and local read
        paths, answer ``unknown-job`` instead."""
        from repro.joshua import wire as joshua_wire
        from repro.net.address import Address
        from repro.pbs import wire as pbs_wire
        from repro.pbs.server import PBS_SERVER_PORT
        from repro.rpc import call as rpc_call

        stack = make_stack(heads=2, seed=5)
        daemon, kind = request_
        if daemon == "pbs":
            record = getattr(pbs_wire, kind)(["x"])
            with pytest.raises(PBSError) as info:
                drive(stack, rpc_call(stack.cluster.network, "login",
                                      Address("head0", PBS_SERVER_PORT), record))
        else:
            record = (joshua_wire.JStatReq("front-door-3", ["x"], "ryw") if kind == "ryw"
                      else getattr(joshua_wire, kind)("front-door-3", ["x"]))
            with pytest.raises(PBSError) as info:
                self.ask(stack, record)
        assert info.value.kind == "unknown-job"
        self.assert_still_serving(stack)

    def test_jsub_without_a_uuid_is_refused_not_cached(self):
        """Two uuid-less jsubs once shared one reply-cache entry: both were
        acknowledged as the same job id, and only the first was queued."""
        from repro.joshua.wire import JSubReq
        from repro.pbs.job import JobSpec

        stack = make_stack(heads=2, seed=5)
        for name in ("first", "second"):
            self.assert_refused(stack, JSubReq(None, JobSpec(name=name, walltime=900)))
        settle(stack, 1.0)
        for head in stack.head_names:
            assert not stack.pbs(head).jobs
        self.assert_still_serving(stack)
