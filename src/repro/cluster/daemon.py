"""Base class for long-running simulated services.

A :class:`Daemon` owns:

* one network endpoint (bound at construction from ``node`` + ``port``),
* a main-loop process (subclass implements :meth:`run` as a generator),
* any number of helper processes spawned via :meth:`spawn`.

The base class guarantees clean teardown: stopping a daemon (or crashing its
node) interrupts the main loop and every helper, closes the endpoint and
flips :attr:`running` — so protocol code can always assume "if I'm executing,
my endpoint is live". Subclasses override :meth:`on_start`, :meth:`run` and
:meth:`on_stop`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.net.network import Endpoint
from repro.sim.process import Process
from repro.util.errors import ClusterError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["Daemon"]


class Daemon:
    """A service process bound to one node and one port.

    Parameters
    ----------
    node:
        The hosting node.
    name:
        Daemon name for logging (unique per node by convention).
    port:
        Port to bind; ``None`` for daemons that do their own binding.
    """

    def __init__(self, node: "Node", name: str, port: int | None = None):
        self.node = node
        self.name = name
        self.kernel = node.kernel
        self.log = node.kernel.log
        self.endpoint: Endpoint | None = None
        if port is not None:
            self.endpoint = node.network.bind(node.name, port)
        self.running = False
        self._main: Process | None = None
        #: Live helper processes in spawn order (an insertion-ordered dict
        #: used as a set: teardown interrupts in this order, and the order of
        #: those interrupts is on the event schedule).
        self._helpers: dict[Process, None] = {}

    # -- identity ------------------------------------------------------------

    @property
    def address(self):
        if self.endpoint is None:
            raise ClusterError(f"daemon {self.tag} has no endpoint")
        return self.endpoint.address

    @property
    def tag(self) -> str:
        """Log tag, e.g. ``joshua@head0``."""
        return f"{self.name}@{self.node.name}"

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self.running:
            raise ClusterError(f"daemon {self.tag} already running")
        self.running = True
        self.on_start()
        self._main = self.kernel.spawn(self._guarded_run(), name=self.tag)

    def stop(self) -> None:
        """Clean stop (SIGTERM equivalent)."""
        if not self.running:
            return
        self._teardown(crashed=False)

    def _teardown(self, *, crashed: bool) -> None:
        self.running = False
        for helper in self._helpers:
            helper.interrupt("daemon stopped")
        self._helpers.clear()
        if self._main is not None:
            self._main.interrupt("daemon stopped")
        if self.endpoint is not None and not self.endpoint.closed:
            self.endpoint.close()
        try:
            self.on_stop(crashed=crashed)
        except Exception:  # pragma: no cover - subclass bug guard
            if not crashed:
                raise

    def spawn(self, generator: Generator, name: str | None = None) -> Process:
        """Run a helper process that dies with the daemon."""
        process = self.kernel.spawn(generator, name=name or f"{self.tag}-helper")
        self._helpers[process] = None
        process.callbacks.append(self._helper_done)
        return process

    def _helper_done(self, helper: Process) -> None:
        """Completion callback of every helper: forget it."""
        self._helpers.pop(helper, None)  # teardown has already cleared it
        if not helper.ok:
            # This callback made the helper look awaited to the kernel's
            # "nobody is waiting on a crashed process" test: keep it loud.
            self.kernel.report_crash(helper, helper.value)

    def _guarded_run(self):
        try:
            yield from self.run()
        except Exception as exc:
            if self.running:
                # A protocol bug, not a teardown: surface it loudly.
                self.log.error(self.tag, f"daemon crashed: {exc!r}")
                self.running = False
                raise

    # -- subclass hooks -----------------------------------------------------------

    def on_start(self) -> None:
        """Called synchronously before the main loop spawns."""

    def run(self) -> Generator:
        """The daemon main loop (generator). Default: sleep forever."""
        while True:
            yield self.kernel.timeout(3600.0)

    def on_stop(self, *, crashed: bool) -> None:
        """Called after teardown. ``crashed`` distinguishes node failure
        from clean stop — on a crash there is no time to flush anything."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Daemon {self.tag} {'running' if self.running else 'stopped'}>"
