"""Cluster builder: kernel + network + head/compute/login nodes in one call.

Reproduces the paper's testbed topology (Figures 1–4): a set of head nodes
and a set of compute nodes on one LAN, with an optional separate login node
from which users run the JOSHUA control commands.
"""

from __future__ import annotations

from repro.cluster.node import Node
from repro.cluster.storage import SharedStorage
from repro.net.network import Network
from repro.sim.kernel import Kernel
from repro.util.errors import ClusterError

__all__ = ["Cluster"]


class Cluster:
    """A simulated Beowulf-style cluster.

    Parameters
    ----------
    head_count / compute_count:
        Number of head and compute nodes (``head0..``, ``compute0..``).
    login_node:
        Also create a ``login`` node for running user commands off-head.
    seed:
        Master seed for all randomness in this cluster's kernel.
    sanitize:
        Forwarded to the kernel's determinism sanitizer.

    Examples
    --------
    >>> cluster = Cluster(head_count=2, compute_count=2, seed=1)
    >>> [n.name for n in cluster.heads]
    ['head0', 'head1']
    """

    def __init__(
        self,
        *,
        head_count: int = 1,
        compute_count: int = 2,
        login_node: bool = False,
        seed: int = 0,
        sanitize: bool = False,
    ):
        if head_count < 1:
            raise ClusterError("need at least one head node")
        if compute_count < 0:
            raise ClusterError("compute_count must be non-negative")
        self.kernel = Kernel(seed=seed, sanitize=sanitize)
        self.network = Network(self.kernel)
        self.heads: list[Node] = [
            Node(self.network, f"head{i}", role="head") for i in range(head_count)
        ]
        self.computes: list[Node] = [
            Node(self.network, f"compute{i}", role="compute") for i in range(compute_count)
        ]
        self.login: Node | None = (
            Node(self.network, "login", role="login") if login_node else None
        )
        #: Cluster-shared stable storage (used by the active/standby model).
        self.shared_storage = SharedStorage()
        #: Name -> node lookup index; rebuilt on miss so callers that append
        #: to ``heads``/``computes`` directly stay correct.
        self._by_name: dict[str, Node] = {n.name: n for n in self.nodes}

    # -- lookups ---------------------------------------------------------------

    @property
    def nodes(self) -> list[Node]:
        extra = [self.login] if self.login is not None else []
        return self.heads + self.computes + extra

    def register_node(self, node: Node) -> None:
        """Index a node added after construction (e.g. ``add_head``)."""
        self._by_name[node.name] = node

    def node(self, name: str) -> Node:
        found = self._by_name.get(name)
        if found is not None:
            return found
        # Miss: the node lists may have been appended to directly.
        self._by_name = {n.name: n for n in self.nodes}
        try:
            return self._by_name[name]
        except KeyError:
            raise ClusterError(f"no node named {name!r}") from None

    # -- convenience -------------------------------------------------------------

    def run(self, until=None):
        """Forward to :meth:`Kernel.run`."""
        return self.kernel.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Cluster heads={len(self.heads)} computes={len(self.computes)}"
            f" t={self.kernel.now:.3f}>"
        )
