"""A simulated machine: endpoints, daemons, crash/restart lifecycle.

A :class:`Node` is the unit of failure in the fail-stop model. Crashing a
node:

1. marks it down on the network (in-flight messages to it are dropped,
   its endpoints are closed),
2. stops every daemon on it (interrupting their processes),
3. discards all volatile daemon state — a restarted daemon is a *new*
   instance that must recover from :class:`~repro.cluster.storage.Disk`
   or via protocol-level state transfer (exactly the paper's join problem).

Restarting brings the node back up and restarts its configured daemons from
scratch.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable

from repro.cluster.storage import Disk
from repro.net.network import Network
from repro.util.errors import ClusterError, NodeDown

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.daemon import Daemon

__all__ = ["Node", "NodeState"]


class NodeState(enum.Enum):
    UP = "up"
    DOWN = "down"


class Node:
    """One machine of the cluster.

    Parameters
    ----------
    network:
        The fabric this node attaches to (the node registers itself).
    name:
        Unique hostname, e.g. ``head0`` or ``compute1``.
    role:
        Free-form role tag (``"head"`` / ``"compute"`` / ``"login"``),
        used by builders and reporting.
    """

    def __init__(self, network: Network, name: str, role: str = "node"):
        self.network = network
        self.name = name
        self.role = role
        self.state = NodeState.UP
        self.disk = Disk(name)
        #: Daemon factories re-invoked on restart: name -> factory(node) -> Daemon.
        self._daemon_factories: dict[str, Callable[["Node"], "Daemon"]] = {}
        #: Currently running daemon instances.
        self.daemons: dict[str, "Daemon"] = {}
        #: Lifecycle observers: callback(node, "crash"|"restart").
        self._observers: list[Callable[["Node", str], None]] = []
        self.crash_count = 0
        network.register_node(name)

    @property
    def kernel(self):
        return self.network.kernel

    @property
    def is_up(self) -> bool:
        return self.state == NodeState.UP

    # -- daemon management -------------------------------------------------

    def add_daemon(self, name: str, factory: Callable[["Node"], "Daemon"], *, start: bool = True) -> "Daemon":
        """Register a daemon *factory* under *name*; optionally start it now.

        The factory is re-invoked to build a fresh instance whenever the node
        restarts, so daemons cannot accidentally carry volatile state across
        a crash.
        """
        if name in self._daemon_factories:
            raise ClusterError(f"daemon {name!r} already registered on {self.name}")
        self._daemon_factories[name] = factory
        if start:
            return self.start_daemon(name)
        return None  # type: ignore[return-value]

    def start_daemon(self, name: str) -> "Daemon":
        if not self.is_up:
            raise NodeDown(f"cannot start daemon on crashed node {self.name}")
        if name not in self._daemon_factories:
            raise ClusterError(f"no daemon {name!r} registered on {self.name}")
        if name in self.daemons and self.daemons[name].running:
            raise ClusterError(f"daemon {name!r} already running on {self.name}")
        daemon = self._daemon_factories[name](self)
        self.daemons[name] = daemon
        daemon.start()
        return daemon

    def stop_daemon(self, name: str) -> None:
        """Cleanly stop one daemon (a process kill, not a node crash)."""
        daemon = self.daemons.get(name)
        if daemon is not None and daemon.running:
            daemon.stop()

    def daemon(self, name: str) -> "Daemon":
        if name not in self.daemons:
            raise ClusterError(f"no daemon {name!r} on {self.name}")
        return self.daemons[name]

    # -- lifecycle ------------------------------------------------------------

    def observe(self, callback: Callable[["Node", str], None]) -> None:
        """Register a lifecycle observer (called on crash and restart)."""
        self._observers.append(callback)

    def crash(self) -> None:
        """Fail-stop the node: daemons die instantly, volatile state is lost."""
        if not self.is_up:
            raise ClusterError(f"node {self.name} is already down")
        self.state = NodeState.DOWN
        self.crash_count += 1
        self.kernel.log.warning(self.name, "node crashed")
        for daemon in list(self.daemons.values()):
            if daemon.running:
                daemon._teardown(crashed=True)
        self.daemons.clear()
        self.network.set_node_up(self.name, False)
        for observer in list(self._observers):
            observer(self, "crash")

    def restart(self, *, daemons: bool = True) -> None:
        """Bring the node back up, optionally restarting registered daemons."""
        if self.is_up:
            raise ClusterError(f"node {self.name} is already up")
        self.state = NodeState.UP
        self.network.set_node_up(self.name, True)
        if daemons:
            for name in self._daemon_factories:
                self.start_daemon(name)
        for observer in list(self._observers):
            observer(self, "restart")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} ({self.role}) {self.state.value}>"
