"""Assembly of a complete single-head PBS stack on a cluster.

This is the paper's Figure 1 system: one head node running the PBS server
and the Maui scheduler, moms on every compute node, users submitting from
wherever. The JOSHUA layer (:mod:`repro.joshua`) and the HA baselines
(:mod:`repro.ha`) build their own assemblies on the same daemons.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.net.address import Address
from repro.pbs.commands import PBSClient
from repro.pbs.mom import PBSMom
from repro.pbs.scheduler import MauiScheduler
from repro.pbs.server import PBS_MOM_PORT, PBS_SERVER_PORT, PBSServer
from repro.pbs.service_times import ERA_2006, ServiceTimes

__all__ = ["PBSStack", "build_pbs_stack", "install_head_daemons"]

#: The server name of :func:`build_pbs_stack` (its job ids read ``N.torque``).
SERVER_NAME = "torque"


@dataclass
class PBSStack:
    """Handles to a deployed single-head PBS system."""

    cluster: Cluster
    head: Node
    server: PBSServer
    scheduler: MauiScheduler
    moms: list[PBSMom]

    @property
    def server_address(self) -> Address:
        return Address(self.head.name, PBS_SERVER_PORT)

    def client(self, node: str | None = None, **kwargs) -> PBSClient:
        """A PBS client on *node* (default: the head node itself)."""
        return PBSClient(
            self.cluster.network,
            node or self.head.name,
            self.server_address,
            service_times=self.server.times,
            **kwargs,
        )


def install_head_daemons(
    head: Node,
    *,
    moms: list[Address],
    service_times: ServiceTimes,
    server_name: str = "torque",
    start: bool = True,
) -> tuple[PBSServer, MauiScheduler]:
    """Register ``pbs_server`` then ``maui`` on *head* — the pair every
    assembly (this one, JOSHUA, the HA baselines) puts on a head node.

    The scheduler polls the server on its own node. With ``start=False``
    the factories are registered cold (a warm standby) and the result is
    ``(None, None)``.
    """
    server_address = Address(head.name, PBS_SERVER_PORT)
    server = head.add_daemon(
        "pbs_server",
        lambda node: PBSServer(
            node,
            moms=moms,
            server_name=server_name,
            service_times=service_times,
        ),
        start=start,
    )
    scheduler = head.add_daemon(
        "maui",
        lambda node: MauiScheduler(
            node,
            server=server_address,
            service_times=service_times,
        ),
        start=start,
    )
    return server, scheduler


def build_pbs_stack(cluster: Cluster, *, service_times: ServiceTimes = ERA_2006) -> PBSStack:
    """Deploy server+scheduler on the first head and a mom on every compute
    node.

    Daemon factories are registered on the nodes, so a node crash/restart
    cycle automatically rebuilds fresh daemon instances (with the server
    recovering its queue from disk).
    """
    head = cluster.heads[0]
    mom_addresses = [Address(c.name, PBS_MOM_PORT) for c in cluster.computes]
    server_address = Address(head.name, PBS_SERVER_PORT)

    server, scheduler = install_head_daemons(
        head,
        moms=mom_addresses,
        service_times=service_times,
        server_name=SERVER_NAME,
    )
    moms = [
        compute.add_daemon(
            "pbs_mom",
            lambda node: PBSMom(
                node, servers=[server_address], service_times=service_times
            ),
        )
        for compute in cluster.computes
    ]
    return PBSStack(cluster, head, server, scheduler, moms)
