"""The replicated metadata service: backend driver + deployment builder.

:class:`MetadataBackend` adapts a :class:`~repro.pvfs.metadata.MetadataStore`
to the :class:`~repro.aa.replicated.BackendDriver` protocol. Two details
keep replicas bit-identical:

* **logical timestamps** — inode times are the operation's position in the
  delivered total order, not the local clock (replicas execute the same
  operation at slightly different simulated instants; wall-clock stamps
  would diverge);
* **service times** — each operation charges a per-op CPU cost, so the
  latency benches reflect 2006-class metadata performance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.aa.engine import record_founding_view
from repro.aa.replicated import ReplicatedService
from repro.cluster.cluster import Cluster
from repro.gcs.config import FAST_GROUP_CONFIG
from repro.net.address import Address
from repro.pvfs.metadata import MetadataStore
from repro.pvfs.wire import (
    Create,
    GetAttr,
    Mkdir,
    ReadDir,
    Rename,
    Rmdir,
    SetAttr,
    StatFs,
    Unlink,
)
from repro.util.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["MetadataBackend", "ReplicatedMDS", "build_replicated_mds",
           "MDS_PORT", "MDS_GCS_PORT"]

MDS_PORT = 3334      # PVFS2's well-known port
MDS_GCS_PORT = 3335


class MetadataBackend:
    """BackendDriver over a MetadataStore."""

    #: Service time of one metadata operation (seconds).
    op_cost = 0.004

    def __init__(self, kernel):
        self.kernel = kernel
        self.store = MetadataStore()
        self._logical_time = 0.0

    def execute(self, payload) -> Generator:
        yield self.kernel.timeout(self.op_cost)
        self._logical_time += 1.0
        now = self._logical_time
        if isinstance(payload, Mkdir):
            return self.store.mkdir(payload.path, now=now)
        if isinstance(payload, Create):
            return self.store.create(payload.path, now=now)
        if isinstance(payload, GetAttr):
            return self.store.getattr(payload.path)
        if isinstance(payload, SetAttr):
            return self.store.setattr(payload.path, size=payload.size, now=now)
        if isinstance(payload, ReadDir):
            return self.store.readdir(payload.path)
        if isinstance(payload, Unlink):
            self.store.unlink(payload.path, now=now)
            return None
        if isinstance(payload, Rmdir):
            self.store.rmdir(payload.path, now=now)
            return None
        if isinstance(payload, Rename):
            self.store.rename(payload.src, payload.dst, now=now)
            return None
        if isinstance(payload, StatFs):
            return self.store.statfs()
        raise ReproError(f"unknown metadata operation {type(payload).__name__}")

    def snapshot(self) -> Generator:
        yield self.kernel.timeout(self.op_cost)
        state = self.store.snapshot()
        state["logical_time"] = self._logical_time
        return state

    def restore(self, state) -> Generator:
        yield self.kernel.timeout(self.op_cost)
        self._logical_time = state.pop("logical_time", 0.0)
        self.store.restore(state)


@dataclass
class ReplicatedMDS:
    """Handles to a deployed replicated metadata service."""

    cluster: Cluster
    head_names: list[str]

    def replica(self, head: str) -> ReplicatedService:
        return self.cluster.node(head).daemon("pvfs-mds")  # type: ignore[return-value]

    def backend(self, head: str) -> MetadataBackend:
        return self.replica(head).driver  # type: ignore[return-value]

    def addresses(self) -> list[Address]:
        return [Address(h, MDS_PORT) for h in self.head_names]

    def live_heads(self) -> list[str]:
        return [
            h for h in self.head_names
            if self.cluster.node(h).is_up and "pvfs-mds" in self.cluster.node(h).daemons
        ]

    def add_replica(self) -> "Node":
        """Join a brand-new metadata replica, named after the cluster's head
        count (snapshot state transfer)."""
        from repro.cluster.node import Node

        name = f"head{len(self.cluster.heads)}"
        node = Node(self.cluster.network, name, role="head")
        self.cluster.heads.append(node)
        self.head_names.append(name)
        node.add_daemon("pvfs-mds", self._replica)
        return node

    def _replica(self, node: "Node") -> ReplicatedService:
        return ReplicatedService(
            node, "pvfs-mds", MetadataBackend(node.kernel),
            port=MDS_PORT, gcs_port=MDS_GCS_PORT,
            heads=self.head_names, group_config=FAST_GROUP_CONFIG,
        )


def build_replicated_mds(cluster: Cluster) -> ReplicatedMDS:
    """Deploy one metadata replica on every head node of *cluster*."""
    mds = ReplicatedMDS(cluster, [h.name for h in cluster.heads])
    for head in cluster.heads:
        record_founding_view(head.disk, mds.head_names, MDS_GCS_PORT)
        head.add_daemon("pvfs-mds", mds._replica)
    return mds
