"""Deployment of the full JOSHUA system on a simulated cluster.

:func:`build_joshua_stack` assembles the paper's Figure 8 architecture:

* on every head node: a TORQUE PBS server + Maui scheduler (FIFO,
  exclusive) + the joshua daemon;
* on every compute node: one PBS mom registered with *all* head-node
  servers (TORQUE v2.0p1 multi-server feature) with the jmutex prologue
  and jdone epilogue installed;
* all joshua daemons in one group over the simulated LAN.

Later heads can be added live with :meth:`JoshuaStack.add_head` — the new
head boots its own PBS stack, joins the group and receives state transfer,
reproducing the paper's head-node join. Every head's daemon is built the
same way, from the stack's head list; only the founders' disks carry the
static view a fresh deployment boots (:func:`~repro.aa.engine.record_founding_view`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aa.engine import record_founding_view
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.gcs.config import GroupConfig
from repro.joshua.commands import JoshuaClient
from repro.joshua.config import JOSHUA_GROUP_CONFIG
from repro.joshua.jmutex import install_jmutex
from repro.joshua.server import JOSHUA_GCS_PORT, REPLICA_SERVER_NAME, JoshuaServer
from repro.net.address import Address
from repro.pbs.mom import PBSMom
from repro.pbs.server import PBS_MOM_PORT, PBS_SERVER_PORT, PBSServer
from repro.pbs.service_times import ERA_2006, ServiceTimes
from repro.pbs.stack import install_head_daemons
from repro.util.errors import JoshuaError

__all__ = ["JoshuaStack", "build_joshua_stack"]


@dataclass
class JoshuaStack:
    """Handles to a deployed JOSHUA system."""

    cluster: Cluster
    head_names: list[str]
    service_times: ServiceTimes
    group_config: GroupConfig
    #: Independent ordering groups hosted on the shared heads. Every head
    #: runs one replica unit per shard; :meth:`add_head` joins all of them.
    shards: int = 1

    @property
    def mom_addresses(self) -> list[Address]:
        return [Address(c.name, PBS_MOM_PORT) for c in self.cluster.computes]

    def joshua(self, head: str) -> JoshuaServer:
        return self.cluster.node(head).daemon("joshua")  # type: ignore[return-value]

    def pbs(self, head: str) -> PBSServer:
        return self.cluster.node(head).daemon("pbs_server")  # type: ignore[return-value]

    def mom(self, compute: str) -> PBSMom:
        return self.cluster.node(compute).daemon("pbs_mom")  # type: ignore[return-value]

    def live_heads(self) -> list[str]:
        return [h for h in self.head_names if self.cluster.node(h).is_up]

    def client(self, node: str | None = None, **kwargs) -> JoshuaClient:
        """A JOSHUA command client on *node* (default: first head)."""
        return JoshuaClient(
            self.cluster.network,
            node or self.head_names[0],
            self.head_names,
            service_times=self.service_times,
            **kwargs,
        )

    def gateway(self, **kwargs) -> "JoshuaGateway":
        """A client gateway over this stack's heads (see
        :mod:`repro.joshua.gateway`)."""
        from repro.joshua.gateway import JoshuaGateway

        kwargs.setdefault("service_times", self.service_times)
        return JoshuaGateway(self.cluster.network, self.head_names, **kwargs)

    def _install_head_daemons(self, node: Node) -> None:
        mom_addresses = self.mom_addresses
        install_head_daemons(
            node,
            moms=mom_addresses,
            service_times=self.service_times,
            server_name=REPLICA_SERVER_NAME,
        )
        # One constructor call for every head and incarnation: boot, join
        # or recover is the engine's decision (ReplicationEngine.start,
        # from the node's disk).
        node.add_daemon("joshua", lambda n: JoshuaServer(
            n,
            heads=self.head_names,
            group_config=self.group_config,
            moms=mom_addresses,
            shards=self.shards,
        ))

    def add_head(self) -> Node:
        """Bring a brand-new head node, named after the cluster's head count,
        into the running system (join + state transfer). Returns the new node."""
        name = f"head{len(self.cluster.heads)}"
        node = Node(self.cluster.network, name, role="head")
        self.cluster.heads.append(node)
        self.cluster.register_node(node)
        self.head_names.append(name)
        self._install_head_daemons(node)
        return node


def build_joshua_stack(
    cluster: Cluster,
    *,
    service_times: ServiceTimes = ERA_2006,
    group_config: GroupConfig = JOSHUA_GROUP_CONFIG,
    shards: int = 1,
) -> JoshuaStack:
    """Deploy JOSHUA across every head node of *cluster*.

    *shards* > 1 partitions the ordering layer: N independent GCS groups
    over the same heads, job namespace split by PBS queue (PROTOCOLS.md
    §10). The default reproduces the paper's single group exactly.
    """
    if not cluster.heads:
        raise JoshuaError("cluster has no head nodes")
    if shards < 1:
        raise JoshuaError("shards must be >= 1")
    stack = JoshuaStack(
        cluster=cluster,
        head_names=[h.name for h in cluster.heads],
        service_times=service_times,
        group_config=group_config,
        shards=shards,
    )
    server_addresses = [Address(h, PBS_SERVER_PORT) for h in stack.head_names]
    for head in cluster.heads:
        record_founding_view(head.disk, stack.head_names, JOSHUA_GCS_PORT, shards)
        stack._install_head_daemons(head)

    def mom_factory(n: Node) -> PBSMom:
        mom = PBSMom(
            n, servers=list(server_addresses), service_times=service_times
        )
        install_jmutex(mom)
        return mom

    for compute in cluster.computes:
        compute.add_daemon("pbs_mom", mom_factory)
    return stack
