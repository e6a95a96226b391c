"""Active/standby failover (paper Figure 2; HA-OSCAR / SLURM style).

One primary head serves; its server state is checkpointed to shared stable
storage every ``checkpoint_interval``. A failover monitor on the standby
head probes the primary and, after ``misses`` consecutive silent probes,
waits :data:`FAILOVER_DELAY` (the 3-5 s warm-standby failover the related
work reports) and brings the service up on the standby from the **last
checkpoint**:

* jobs submitted after that checkpoint are *lost* (rollback),
* jobs that were running are requeued and their applications purged from
  the compute nodes — "all currently running scientific applications have
  to be restarted after a head node failover" (§2),
* the service is unavailable from the crash until the standby finishes
  recovery.

These three costs are exactly what the symmetric active/active comparison
bench quantifies against JOSHUA.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.cluster.cluster import Cluster
from repro.cluster.daemon import Daemon
from repro.net.address import Address
from repro.pbs.commands import PBSClient
from repro.pbs.job import JobSpec, JobState
from repro.pbs.mom import PBSMom
from repro.pbs.server import PBS_MOM_PORT, PBS_SERVER_PORT
from repro.pbs.service_times import ERA_2006
from repro.pbs.stack import install_head_daemons
from repro.pbs.wire import AdminPurge, AdminServers, SchedPollReq
from repro.rpc import RpcTimeout, call as rpc_call
from repro.util.errors import PBSError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["ActiveStandbySystem", "FailoverMonitor"]

#: Key of the PBS server record, and prefix of every record the server
#: persists (``pbs/server.py``: the server record plus one per job).
_CKPT_KEY = "pbs.torque"

#: Seconds from declaring the primary dead to starting the standby's stack.
FAILOVER_DELAY = 4.0


def _mirror_server_records(source, target) -> None:
    """Make *target*'s PBS record set equal *source*'s: stale records go,
    then every record is copied — ``rsync --delete`` of ``server_priv``.
    One record alone is never a checkpoint: the job records without the
    server record lose the id counter, and the reverse loses the queue."""
    target.delete_prefix(_CKPT_KEY)
    for key in source.keys(_CKPT_KEY):
        target.write(key, source.read(key))


class _CheckpointDaemon(Daemon):
    """Copies the primary server's persisted state to shared storage.

    The real-world analogue is an rsync of ``server_priv`` to the NFS
    filer: cheap, periodic, and the failover's rollback point.
    """

    def __init__(self, node: "Node", *, shared, interval: float):
        super().__init__(node, "ckpt", 15010)
        self.shared = shared
        self.interval = interval
        self.checkpoints = 0

    def run(self):
        while True:
            yield self.kernel.timeout(self.interval)
            if _CKPT_KEY in self.node.disk:
                _mirror_server_records(self.node.disk, self.shared)
                self.checkpoints += 1


class FailoverMonitor(Daemon):
    """Runs on the standby; detects primary death and takes over."""

    #: Consecutive silent probes that declare the primary dead.
    misses = 3

    def __init__(
        self,
        node: "Node",
        *,
        primary: Address,
        shared,
        moms: list[Address],
        probe_interval: float = 1.0,
    ):
        super().__init__(node, "failover-monitor", 15011)
        self.primary = primary
        self.shared = shared
        self.moms = moms
        self.probe_interval = probe_interval
        self.failed_over = False
        self.failover_time: float | None = None

    def run(self):
        consecutive = 0
        while not self.failed_over:
            yield self.kernel.timeout(self.probe_interval)
            try:
                yield from rpc_call(
                    self.node.network, self.node.name, self.primary,
                    SchedPollReq(), timeout=self.probe_interval * 0.8,
                )
                consecutive = 0
            except (RpcTimeout, PBSError):
                consecutive += 1
            if consecutive >= self.misses:
                yield from self._failover()
                return

    def _failover(self):
        self.log.warning(self.tag, "primary silent; failing over")
        yield self.kernel.timeout(FAILOVER_DELAY)
        # Restore the last checkpoint onto the local disk so the server
        # recovers from it exactly as it would from its own crash.
        if _CKPT_KEY in self.shared:
            _mirror_server_records(self.shared, self.node.disk)
        self.node.start_daemon("pbs_server")
        self.node.start_daemon("maui")
        # Orphaned applications restart: purge the moms, point them at us.
        for mom in self.moms:
            self.endpoint.send(mom, AdminPurge())
            self.endpoint.send(
                mom, AdminServers((Address(self.node.name, PBS_SERVER_PORT),))
            )
        self.failed_over = True
        self.failover_time = self.kernel.now
        self.log.warning(self.tag, "failover complete; standby is now active")


class ActiveStandbySystem:
    """Deploys and fronts a primary + warm-standby PBS system."""

    name = "active_standby"

    #: Seconds between checkpoints of the primary's server records.
    checkpoint_interval = 5.0

    def __init__(self, cluster: Cluster, *, probe_interval: float = 1.0):
        if len(cluster.heads) < 2:
            raise PBSError("active/standby needs two head nodes")
        self.cluster = cluster
        self.primary = cluster.heads[0]
        self.standby = cluster.heads[1]
        self.client_node = "login" if cluster.login else cluster.computes[0].name
        mom_addresses = [Address(c.name, PBS_MOM_PORT) for c in cluster.computes]
        primary_address = Address(self.primary.name, PBS_SERVER_PORT)

        # Primary stack + checkpointing.
        install_head_daemons(
            self.primary, moms=mom_addresses, service_times=ERA_2006
        )
        shared = cluster.shared_storage
        self.primary.add_daemon(
            "ckpt",
            lambda n: _CheckpointDaemon(n, shared=shared, interval=self.checkpoint_interval),
        )
        # Standby: cold daemons registered but not started, plus the monitor.
        install_head_daemons(
            self.standby, moms=mom_addresses, service_times=ERA_2006,
            start=False,
        )
        self.monitor: FailoverMonitor = self.standby.add_daemon(
            "failover-monitor",
            lambda n: FailoverMonitor(
                n, primary=primary_address, shared=shared, moms=mom_addresses,
                probe_interval=probe_interval,
            ),
        )
        # Moms initially report to the primary only.
        for compute in cluster.computes:
            compute.add_daemon(
                "pbs_mom",
                lambda n: PBSMom(n, servers=[primary_address]),
            )

    # -- uniform HA-system interface ------------------------------------------

    def active_server_address(self) -> Address:
        if self.monitor.failed_over:
            return Address(self.standby.name, PBS_SERVER_PORT)
        return Address(self.primary.name, PBS_SERVER_PORT)

    def _client(self) -> PBSClient:
        return PBSClient(
            self.cluster.network,
            self.client_node,
            self.active_server_address(),
            timeout=2.0,
            retries=0,
        )

    def submit(self, spec: JobSpec) -> Generator:
        job_id = yield from self._client().qsub(spec)
        return job_id

    def stat(self) -> Generator:
        rows = yield from self._client().qstat(None)
        return rows

    def authoritative_jobs(self) -> dict[str, tuple[JobState, int]]:
        node = self.standby if self.monitor.failed_over else self.primary
        if not node.is_up or "pbs_server" not in node.daemons:
            return {}
        server = node.daemon("pbs_server")
        return {j.job_id: (j.state, j.run_count) for j in server.jobs}
