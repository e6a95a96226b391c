"""The single-head-node baseline (paper Figure 1).

The traditional Beowulf arrangement: one head node runs the PBS server and
scheduler; when it goes down the whole HPC system is interrupted (single
point of failure *and* control). The server's queue survives on local disk
(TORQUE persistence) and running jobs are requeued on recovery — i.e. the
applications restart, and the service is unavailable for the entire repair
time.
"""

from __future__ import annotations

from typing import Generator

from repro.cluster.cluster import Cluster
from repro.pbs.commands import PBSClient
from repro.pbs.job import JobSpec, JobState
from repro.pbs.stack import build_pbs_stack

__all__ = ["SingleHeadSystem"]


class SingleHeadSystem:
    """Deploys and fronts a plain single-head PBS system."""

    name = "single"

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.stack = build_pbs_stack(cluster)
        self.client_node = "login" if cluster.login else cluster.computes[0].name
        self._client = PBSClient(
            cluster.network,
            self.client_node,
            self.stack.server_address,
            timeout=2.0,
            retries=0,
        )

    # -- uniform HA-system interface -----------------------------------------

    def submit(self, spec: JobSpec) -> Generator:
        job_id = yield from self._client.qsub(spec)
        return job_id

    def stat(self) -> Generator:
        rows = yield from self._client.qstat()
        return rows

    def authoritative_jobs(self) -> dict[str, tuple[JobState, int]]:
        """job_id -> (state, run_count) from the current server instance."""
        head = self.cluster.heads[0]
        if not head.is_up or "pbs_server" not in head.daemons:
            return {}
        server = head.daemon("pbs_server")
        return {j.job_id: (j.state, j.run_count) for j in server.jobs}
