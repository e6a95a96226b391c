"""Virtual cluster: nodes, daemons, persistent storage.

Models the paper's testbed — up to 4 head nodes and 2 compute nodes on one
LAN — as simulation objects:

* :class:`~repro.cluster.node.Node` — a machine that can crash and restart.
  Crashing tears down every daemon and endpoint on the node (fail-stop) and
  wipes volatile state; only the node's :class:`~repro.cluster.storage.Disk`
  survives.
* :class:`~repro.cluster.daemon.Daemon` — base class for long-running
  services (PBS server, mom, joshua, GCS). Handles the start/crash/restart
  lifecycle so protocol code never sees half-dead daemons.
* :class:`~repro.cluster.cluster.Cluster` — builder that wires a kernel, a
  network, N head nodes and M compute nodes together.

Fault injection lives above this package, in :mod:`repro.faults` (scripted
and seeded-random schedules applied to a :class:`Cluster`); a node's
up/down history is derived from its lifecycle observers by
:class:`repro.ha.raslog.RASCollector`.
"""

from repro.cluster.node import Node, NodeState
from repro.cluster.daemon import Daemon
from repro.cluster.cluster import Cluster
from repro.cluster.storage import Disk, SharedStorage

__all__ = [
    "Node",
    "NodeState",
    "Daemon",
    "Cluster",
    "Disk",
    "SharedStorage",
]
