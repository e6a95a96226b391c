"""Behavioural contrasts between the HA models (paper §2 + §6).

Identical fault at the same moment; the models differ in exactly the ways
the paper describes: the single head interrupts service for the full
repair; active/standby interrupts for the failover and rolls back +
restarts applications; asymmetric keeps serving but loses the failed
head's queue; JOSHUA (tested extensively elsewhere) loses nothing.
"""

import pytest

from repro.cluster import Cluster
from repro.ha import ActiveStandbySystem, AsymmetricSystem, ServiceProbe, SingleHeadSystem
from repro.ha.active_standby import FailoverMonitor
from repro.pbs.job import JobSpec, JobState
from repro.util.errors import NoActiveHeadError, PBSError
from repro.rpc import RpcTimeout


def make_cluster(heads, computes=2, seed=41):
    return Cluster(head_count=heads, compute_count=computes, seed=seed, login_node=True)


def drive(cluster, coroutine):
    process = cluster.kernel.spawn(coroutine)
    return cluster.run(until=process)


class TestSingleHead:
    def test_outage_lasts_until_repair(self):
        cluster = make_cluster(1)
        system = SingleHeadSystem(cluster)
        drive(cluster, system.submit(JobSpec(name="pre", walltime=500)))
        probe = ServiceProbe(cluster.kernel, lambda: system.stat())
        cluster.run(until=5.0)
        cluster.heads[0].crash()
        cluster.run(until=25.0)
        cluster.heads[0].restart()
        cluster.run(until=40.0)
        down = probe.total_downtime()
        assert 18.0 <= down <= 24.0  # the full ~20 s repair window

    def test_running_job_restarts_after_repair(self):
        cluster = make_cluster(1)
        system = SingleHeadSystem(cluster)
        job_id = drive(cluster, system.submit(JobSpec(name="app", walltime=30.0)))
        cluster.run(until=3.0)  # running
        cluster.heads[0].crash()
        cluster.run(until=8.0)
        cluster.heads[0].restart()
        cluster.run(until=120.0)
        state, run_count = system.authoritative_jobs()[job_id]
        assert state is JobState.COMPLETE
        assert run_count == 2  # the application restarted

    def test_submission_fails_while_down(self):
        cluster = make_cluster(1)
        system = SingleHeadSystem(cluster)
        cluster.heads[0].crash()
        with pytest.raises((RpcTimeout, PBSError)):
            drive(cluster, system.submit(JobSpec(name="nope")))


class TestActiveStandby:
    @pytest.fixture(autouse=True)
    def quicker_failover(self, monkeypatch):
        monkeypatch.setattr(ActiveStandbySystem, "checkpoint_interval", 3.0)
        monkeypatch.setattr(FailoverMonitor, "misses", 2)

    def make(self, seed=43):
        cluster = make_cluster(2, seed=seed)
        system = ActiveStandbySystem(cluster, probe_interval=0.5)
        return cluster, system

    def test_failover_restores_service(self):
        cluster, system = self.make()
        drive(cluster, system.submit(JobSpec(name="pre", walltime=900)))
        cluster.run(until=5.0)  # past a checkpoint
        cluster.heads[0].crash()
        cluster.run(until=20.0)
        assert system.monitor.failed_over
        job_id = drive(cluster, system.submit(JobSpec(name="post", walltime=900)))
        assert job_id in system.authoritative_jobs()

    def test_interruption_is_failover_window_not_repair(self):
        cluster, system = self.make()
        drive(cluster, system.submit(JobSpec(name="pre", walltime=900)))
        probe = ServiceProbe(cluster.kernel, lambda: system.stat())
        probe.interval = 0.5
        cluster.run(until=6.0)
        cluster.heads[0].crash()
        cluster.run(until=60.0)  # primary never repaired
        down = probe.total_downtime()
        # Detection (~1s) + failover delay (4s) + recovery, not 54 s.
        assert 3.0 <= down <= 12.0

    def test_jobs_after_checkpoint_are_lost(self):
        cluster, system = self.make()
        kept = drive(cluster, system.submit(JobSpec(name="kept", walltime=900)))
        cluster.run(until=7.0)  # checkpoint at t=3 and t=6 include it
        # Submit and crash before the next checkpoint (t=9).
        lost = drive(cluster, system.submit(JobSpec(name="lost", walltime=900)))
        cluster.heads[0].crash()
        cluster.run(until=30.0)
        jobs = system.authoritative_jobs()
        assert kept in jobs
        assert lost not in jobs  # rolled back to the last checkpoint

    def test_failover_restores_exactly_the_checkpointed_job_set(self):
        """The checkpoint is the server's whole record set (one record per
        job plus the server record): jobs submitted, deleted or held after
        it roll back together, and so does the id counter."""
        cluster, system = self.make()
        ids = [
            drive(cluster, system.submit(JobSpec(name=f"j{i}", walltime=900)))
            for i in range(4)
        ]
        cluster.run(until=6.5)  # checkpoint at t=6 holds all four
        primary = cluster.heads[0]
        assert (cluster.shared_storage.keys("pbs.torque")
                == primary.disk.keys("pbs.torque"))
        assert len(primary.disk.keys("pbs.torque")) == 1 + len(ids)
        # Exclusive FIFO: the first job runs, the others wait.
        Q, R = JobState.QUEUED, JobState.RUNNING
        assert [j.state for j in primary.daemon("pbs_server").jobs] == [R, Q, Q, Q]
        # Several mutations the next checkpoint (t=9) never sees.
        client = system._client()
        lost = drive(cluster, system.submit(JobSpec(name="lost", walltime=900)))
        drive(cluster, client.qdel(ids[2]))
        drive(cluster, client.qhold(ids[3]))
        assert cluster.kernel.now < 9.0
        primary.crash()
        cluster.run(until=30.0)
        assert system.monitor.failed_over
        server = cluster.heads[1].daemon("pbs_server")
        # Same jobs, same queue order; the running ones restarted, the
        # delete and the hold are undone, the late submission is gone.
        assert [j.job_id for j in server.jobs] == ids
        assert [j.state for j in server.jobs] == [R, Q, Q, Q]
        assert [j.run_count for j in server.jobs] == [2, 0, 0, 0]
        assert lost not in server.jobs
        # The server record rolled back with the job records.
        again = drive(cluster, system.submit(JobSpec(name="again", walltime=900)))
        assert again == lost

    def test_running_application_restarts_on_failover(self):
        cluster, system = self.make()
        job_id = drive(cluster, system.submit(JobSpec(name="app", walltime=25.0)))
        cluster.run(until=8.0)  # running + checkpointed as R
        cluster.heads[0].crash()
        cluster.run(until=120.0)
        state, run_count = system.authoritative_jobs()[job_id]
        assert state is JobState.COMPLETE
        assert run_count >= 2  # restarted from scratch after failover

    def test_checkpoints_written(self):
        cluster, system = self.make()
        drive(cluster, system.submit(JobSpec(name="x", walltime=900)))
        cluster.run(until=10.0)
        assert cluster.heads[0].daemon("ckpt").checkpoints >= 2
        assert cluster.shared_storage.read("pbs.torque") is not None

    def test_requires_two_heads(self):
        with pytest.raises(PBSError):
            ActiveStandbySystem(make_cluster(1))


class TestAsymmetric:
    def make(self, seed=47):
        cluster = make_cluster(2, computes=2, seed=seed)
        return cluster, AsymmetricSystem(cluster)

    def test_round_robin_submission(self):
        cluster, system = self.make()
        ids = [
            drive(cluster, system.submit(JobSpec(name=f"j{i}", walltime=900)))
            for i in range(4)
        ]
        suffixes = {job_id.split(".", 1)[1] for job_id in ids}
        assert suffixes == {"torque-head0", "torque-head1"}

    def test_service_survives_one_head_loss(self):
        cluster, system = self.make()
        drive(cluster, system.submit(JobSpec(name="a", walltime=900)))
        cluster.heads[0].crash()
        job_id = drive(cluster, system.submit(JobSpec(name="b", walltime=900)))
        assert job_id.endswith("torque-head1")

    def test_failed_heads_jobs_unavailable(self):
        cluster, system = self.make()
        ids = [
            drive(cluster, system.submit(JobSpec(name=f"j{i}", walltime=900)))
            for i in range(4)
        ]
        before = system.authoritative_jobs()
        assert len(before) == 4
        cluster.heads[0].crash()
        after = system.authoritative_jobs()
        assert len(after) == 2  # head0's queue is gone until repair

    def test_all_heads_down_raises(self):
        cluster, system = self.make()
        cluster.heads[0].crash()
        cluster.heads[1].crash()
        with pytest.raises(NoActiveHeadError):
            drive(cluster, system.submit(JobSpec(name="x")))

    def test_throughput_parallelism(self):
        """Two heads run two jobs concurrently — the asymmetric model's
        selling point (each stack has exclusive FIFO over its own slice)."""
        cluster, system = self.make()
        for i in range(2):
            drive(cluster, system.submit(JobSpec(name=f"p{i}", walltime=5.0)))
        cluster.run(until=4.0)
        running = [
            job_id for job_id, (state, _rc) in system.authoritative_jobs().items()
            if state is JobState.RUNNING
        ]
        assert len(running) == 2

    def test_validation(self):
        with pytest.raises(PBSError):
            AsymmetricSystem(make_cluster(1))
        with pytest.raises(PBSError):
            AsymmetricSystem(Cluster(head_count=2, compute_count=1, login_node=True))
