"""HA model comparison: identical workload + fault, four models.

The paper's §2 taxonomy made quantitative: the same Poisson submission
stream and the same head-node crash/repair schedule run against

* the single-head baseline,
* active/standby failover,
* asymmetric active/active,
* symmetric active/active (JOSHUA).

Reported per model: empirical service downtime (probe), jobs lost, jobs
whose application had to restart, and submit failures — the quantities the
models trade against each other.
"""

from __future__ import annotations

from typing import Generator

from repro.bench.workloads import PoissonWorkload
from repro.cluster.cluster import Cluster
from repro.ha.active_standby import ActiveStandbySystem
from repro.ha.asymmetric import AsymmetricSystem
from repro.ha.probe import ServiceProbe, WorkloadReport
from repro.ha.single import SingleHeadSystem
from repro.joshua.deploy import build_joshua_stack
from repro.gcs.config import GroupConfig
from repro.pbs.job import JobSpec, JobState
from repro.util.errors import ReproError

__all__ = ["MODELS", "run_model", "compare_models"]

MODELS = ("single", "active_standby", "asymmetric", "symmetric")

#: The fault schedule every model runs under: head0 crashes at CRASH_AT and
#: is repaired at RESTART_AT (simulated seconds).
CRASH_AT = 20.0
RESTART_AT = 80.0
#: Simulated seconds each model runs for.
HORIZON = 220.0

#: Group timings for the comparison (faster than the calibrated deployment
#: config so suspicion/view change complete well inside the fault window).
_COMPARE_GROUP = GroupConfig(
    heartbeat_interval=0.25,
    suspect_timeout=0.8,
    flush_timeout=1.5,
    retransmit_interval=0.05,
)


class _SymmetricSystem:
    """JOSHUA behind the uniform HA-system interface."""

    name = "symmetric"

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.stack = build_joshua_stack(cluster, group_config=_COMPARE_GROUP)
        self._client = self.stack.client(node="login", timeout=2.0)

    def submit(self, spec: JobSpec) -> Generator:
        job_id = yield from self._client.jsub(spec)
        return job_id

    def stat(self) -> Generator:
        rows = yield from self._client.jstat()
        return rows

    def authoritative_jobs(self):
        out = {}
        for head in self.stack.live_heads():
            node = self.cluster.node(head)
            if "pbs_server" not in node.daemons:
                continue  # repaired but not re-integrated
            for job in self.stack.pbs(head).jobs:
                out[job.job_id] = (job.state, job.run_count)
            break  # any live replica is authoritative
        return out


def _build(model: str, seed: int):
    heads = 1 if model == "single" else 2
    cluster = Cluster(head_count=heads, compute_count=2, seed=seed, login_node=True)
    if model == "single":
        return cluster, SingleHeadSystem(cluster)
    if model == "active_standby":
        return cluster, ActiveStandbySystem(cluster, probe_interval=0.5)
    if model == "asymmetric":
        return cluster, AsymmetricSystem(cluster)
    if model == "symmetric":
        return cluster, _SymmetricSystem(cluster)
    raise ReproError(f"unknown model {model!r}")


def run_model(
    model: str,
    *,
    seed: int = 101,
    jobs: int = 15,
    rate: float = 0.4,
) -> WorkloadReport:
    """One model under the standard workload + fault schedule."""
    cluster, system = _build(model, seed)
    kernel = cluster.kernel
    submitted: list[str] = []
    failures = [0]

    def submitter():
        for delay, spec in PoissonWorkload(jobs, rate, walltime_range=(4.0, 12.0), seed=seed):
            if delay:
                yield kernel.timeout(delay)
            try:
                job_id = yield from system.submit(spec)
                submitted.append(job_id)
            except Exception:
                failures[0] += 1

    probe = ServiceProbe(kernel, system.stat)
    kernel.spawn(submitter(), name="workload")

    def fault_driver():
        yield kernel.timeout(CRASH_AT)
        cluster.heads[0].crash()
        yield kernel.timeout(RESTART_AT - CRASH_AT)
        # Repair semantics differ: models whose head can simply reboot its
        # daemons do so; failover/replicated models get a bare repaired
        # node (re-integration is a separate, heavier operation measured
        # in the membership tests).
        if model in ("single", "asymmetric"):
            cluster.heads[0].restart()
        else:
            cluster.heads[0].restart(daemons=False)

    kernel.spawn(fault_driver(), name="fault-driver")
    cluster.run(until=HORIZON)

    jobs_now = system.authoritative_jobs()
    completed = sum(
        1 for job_id in submitted
        if job_id in jobs_now and jobs_now[job_id][0] is JobState.COMPLETE
    )
    lost = sum(1 for job_id in submitted if job_id not in jobs_now)
    restarted = sum(
        1 for job_id in submitted
        if job_id in jobs_now and jobs_now[job_id][1] > 1
    )
    return WorkloadReport(
        model=model,
        submitted=len(submitted),
        completed=completed,
        lost=lost,
        restarted=restarted,
        submit_failures=failures[0],
        probe_downtime=probe.total_downtime(),
        probe_availability=probe.availability(),
    )


def compare_models(*, seed: int = 101, **kwargs) -> list[dict]:
    """Run every model under the identical scenario; return summary rows."""
    return [run_model(model, seed=seed, **kwargs).summary_row() for model in MODELS]
