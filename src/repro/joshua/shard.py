"""Per-shard replica unit: one ordering group's worth of JOSHUA state.

The sharded deployment (PROTOCOLS.md §10) partitions the job namespace by
PBS queue across N independent GCS groups hosted on the *same* head nodes.
Each :class:`ShardReplica` is what the pre-sharding ``JoshuaServer`` used
to be in miniature: one :class:`~repro.aa.engine.ReplicationEngine` (its
own :class:`~repro.gcs.member.GroupMember` on the per-shard port
``JOSHUA_GCS_PORT + index`` with ``group_id=index``, serial apply loop,
reply cache and marker-cut join) driving the local PBS through a
:class:`~repro.joshua.executor.SerialExecutor`, plus one
:class:`~repro.joshua.mutex.MutexArbiter`. The façade
:class:`~repro.joshua.server.JoshuaServer` keeps the single client-facing
endpoint and routes each request to the owning replica.

All replicas on one head apply commands to the *same* local PBS server, so
the job-id space is **striped**: shard *k* of *N* forces ids
``k+1, k+1+N, k+1+2N, …`` on its submissions, making ids globally unique,
deterministic across that shard's replicas, and instantly attributable
(``(seq-1) % N`` names the owning shard — the router's delete/stat/mutex
key). One shard is the stripe of width 1: ids ``1, 2, 3, …``, forced all
the same, so a replica's ids follow from the total order alone and never
from its local server's counter.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

from repro.aa.engine import ReplicationEngine
from repro.gcs.view import View
from repro.joshua.executor import SerialExecutor
from repro.joshua.mutex import MutexArbiter
from repro.joshua.wire import Claim, Done, Started
from repro.net.address import Address
from repro.pbs.server import PBS_SERVER_PORT, recorded_jobs
from repro.pbs.wire import AdminServers

if TYPE_CHECKING:  # pragma: no cover
    from repro.gcs.config import GroupConfig
    from repro.joshua.server import JoshuaServer

__all__ = ["ShardReplica", "queue_for_shard"]


def queue_for_shard(shard: int, nshards: int) -> str:
    """The lowest-numbered queue name ``q<j>`` the router maps to *shard*.

    The router hashes queue names with CRC-32, so consecutive ``q0, q1, …``
    do **not** land on consecutive shards; workloads and benches that want
    to target (or evenly cover) specific shards use this search instead of
    guessing names.
    """
    j = 0
    while True:
        name = f"q{j}"
        if zlib.crc32(name.encode()) % nshards == shard:
            return name
        j += 1


class ShardReplica(ReplicationEngine):
    """One shard's replication engine on one head node, plus what is
    JOSHUA's own: the striped job-id space, the launch-mutex arbiter riding
    the same ordered stream, and the server-list announcements to the moms.
    """

    def __init__(
        self,
        server: "JoshuaServer",
        index: int,
        group_config: "GroupConfig",
        gcs_base_port: int,
    ):
        super().__init__(server, SerialExecutor(self), group_config, gcs_base_port, index)
        self.stats.update(claims=0, revocations=0)
        self.arbiter = MutexArbiter(self)
        # What a returning head's capture is built from, off its disk: the
        # id counter, and the specs of the jobs its PBS server recorded.
        disk = self.node.disk
        self._stripe_key = f"joshua.stripe.{self.gcs_port}"
        #: jsub executions this shard has totally ordered — drives the
        #: striped force_job_id sequence (see :meth:`next_forced_job_id`).
        self.stripe_count = disk.read(self._stripe_key, 0)
        self.driver.specs = {
            job.job_id: job.spec for _rank, job in recorded_jobs(disk, server.name)
        }

    # -- job-id striping ------------------------------------------------------

    def next_forced_job_id(self) -> str:
        """The next striped job id.

        Advances only on totally-ordered jsub executions, so every replica
        of this shard computes the identical sequence. The suffix is the
        daemon's name, which is also the logical server name every
        replicated ``pbs_server`` runs under.
        """
        seq = self.index + 1 + self.stripe_count * self.nshards
        self.set_stripe_count(self.stripe_count + 1)
        return f"{seq}.{self.host.name}"

    def set_stripe_count(self, count: int) -> None:
        """Move the id counter, on disk too: it is taken before the
        submission reaches the local PBS, so no id is ever handed out
        twice."""
        self.stripe_count = count
        self.node.disk.write(self._stripe_key, count)

    def owns_job(self, job_id: str) -> bool:
        """*job_id* falls in this replica's stripe of the id space."""
        return (int(job_id.split(".", 1)[0]) - 1) % self.nshards == self.index

    # -- engine hooks ---------------------------------------------------------

    def on_ordered(self, payload) -> None:
        if isinstance(payload, Claim):
            self.arbiter.on_claim(payload)
        elif isinstance(payload, Started):
            self.arbiter.on_started(payload)
        elif isinstance(payload, Done):
            self.arbiter.on_done(payload)

    def _on_view(self, view: View) -> None:
        super()._on_view(view)
        self.arbiter.revoke_for_view(view)
        # Tell every mom the current server set, so obituaries (and future
        # start attempts) reach exactly the live heads. Only shard 0
        # announces: every shard spans the same head set, and N copies of
        # the same list would just multiply mom traffic.
        if (
            self.index == 0
            and view.members
            and view.coordinator == self.group.address
        ):
            servers = tuple(
                sorted(Address(m.node, PBS_SERVER_PORT) for m in view.members)
            )
            endpoint = self.host.endpoint
            for mom in self.host.moms:
                if not endpoint.closed:
                    endpoint.send(mom, AdminServers(servers))
