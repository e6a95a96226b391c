"""Asymmetric active/active (paper Figure 3).

Two or more active head nodes offer the service "at tandem without
coordination": each runs its own independent PBS server/scheduler over its
own slice of the compute nodes, and users spread submissions across them.
Throughput scales with the number of heads — but because there is no
coordinated global state, each head's queue is still a single copy:

* a head failure makes *its* jobs unavailable (and its running
  applications orphaned) until that head is repaired,
* the service as a whole stays reachable through the surviving heads —
  continuous availability for *stateless* use, per §2, but only
  active/standby-grade protection for the stateful job queue.

This is the model of the authors' earlier prototype (Leangsuksun et al.,
COSET-2 2005) that the paper cites as prior work.
"""

from __future__ import annotations

from typing import Generator

from repro.cluster.cluster import Cluster
from repro.net.address import Address
from repro.pbs.commands import PBSClient
from repro.pbs.job import JobSpec, JobState
from repro.pbs.mom import PBSMom
from repro.pbs.server import PBS_MOM_PORT, PBS_SERVER_PORT
from repro.pbs.service_times import ERA_2006
from repro.pbs.stack import install_head_daemons
from repro.util.errors import NoActiveHeadError, PBSError

__all__ = ["AsymmetricSystem"]


class AsymmetricSystem:
    """Independent per-head PBS stacks with client-side load balancing."""

    name = "asymmetric"

    def __init__(self, cluster: Cluster):
        if len(cluster.heads) < 2:
            raise PBSError("asymmetric active/active needs at least two heads")
        if len(cluster.computes) < len(cluster.heads):
            raise PBSError("need at least one compute node per head")
        self.cluster = cluster
        self.client_node = "login" if cluster.login else cluster.computes[0].name
        self._round_robin = 0

        # Partition compute nodes round-robin across heads.
        self.partition: dict[str, list[Address]] = {h.name: [] for h in cluster.heads}
        for index, compute in enumerate(cluster.computes):
            head = cluster.heads[index % len(cluster.heads)]
            self.partition[head.name].append(Address(compute.name, PBS_MOM_PORT))

        for head in cluster.heads:
            install_head_daemons(
                head,
                moms=self.partition[head.name],
                service_times=ERA_2006,
                server_name=f"torque-{head.name}",
            )
        for index, compute in enumerate(cluster.computes):
            owner = cluster.heads[index % len(cluster.heads)]
            server_address = Address(owner.name, PBS_SERVER_PORT)
            compute.add_daemon(
                "pbs_mom",
                lambda n, sa=server_address: PBSMom(n, servers=[sa]),
            )

    # -- uniform HA-system interface ----------------------------------------------

    def live_heads(self) -> list[str]:
        return [h.name for h in self.cluster.heads if h.is_up]

    def _next_head(self) -> str:
        live = self.live_heads()
        if not live:
            raise NoActiveHeadError("all asymmetric heads are down")
        head = live[self._round_robin % len(live)]
        self._round_robin += 1
        return head

    def _client_for(self, head: str) -> PBSClient:
        return PBSClient(
            self.cluster.network,
            self.client_node,
            Address(head, PBS_SERVER_PORT),
            timeout=2.0,
            retries=0,
        )

    def submit(self, spec: JobSpec) -> Generator:
        job_id = yield from self._client_for(self._next_head()).qsub(spec)
        return job_id

    def stat(self) -> Generator:
        """Status succeeds if any head answers (stateless availability)."""
        rows = yield from self._client_for(self._next_head()).qstat()
        return rows

    def authoritative_jobs(self) -> dict[str, tuple[JobState, int]]:
        """Union over live heads; a dead head's jobs are simply absent —
        the asymmetric model's data-loss window."""
        out: dict[str, tuple[JobState, int]] = {}
        for head in self.cluster.heads:
            if not head.is_up or "pbs_server" not in head.daemons:
                continue
            for job in head.daemon("pbs_server").jobs:
                out[job.job_id] = (job.state, job.run_count)
        return out
