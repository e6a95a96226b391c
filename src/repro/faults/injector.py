"""Executes a :class:`~repro.faults.schedule.FaultSchedule` on a cluster.

The injector is a thin, deterministic driver: one kernel process walks the
sorted events, applies each at its time through the cluster/network APIs,
and — for the timed kinds — spawns a revert timer. Link-quality bursts
(``loss``/``jitter``) are composed over the baseline LAN model captured at
construction, so overlapping bursts of different kinds stack and reverting
one restores exactly the other's contribution.

Ordering-token loss is injected at the wire with a network drop filter
matching transport DATA frames that carry a
:class:`~repro.gcs.messages.TokenMsg`. Tokens travel over the reliable
channel, so the ring stalls only while the filter is active and recovers by
retransmission once it lifts — exercising the recovery machinery rather
than wedging the group forever.

Every applied action is appended to :attr:`FaultInjector.log` as
``(sim_time, description)`` for reports and failure replay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.gcs.messages import TokenMsg
from repro.net.address import Address
from repro.net.frames import DataFrame

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster

__all__ = ["FaultInjector", "drops_token"]


def drops_token(src: Address, dst: Address, payload: Any) -> bool:
    """Drop-filter predicate: transport DATA frames carrying a TokenMsg."""
    return isinstance(payload, DataFrame) and isinstance(payload.payload, TokenMsg)


class FaultInjector:
    """Applies fault schedules to a :class:`~repro.cluster.cluster.Cluster`."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.kernel = cluster.kernel
        self.network = cluster.network
        self._baseline_lan = cluster.network.lan
        self._loss: float | None = None
        self._jitter: float | None = None
        self._frozen: set[str] = set()
        self._filter_tokens: list[int] = []
        #: Applied actions: (sim_time, human-readable description).
        self.log: list[tuple[float, str]] = []

    # -- driving -------------------------------------------------------------

    def apply(self, schedule: FaultSchedule):
        """Spawn the driver process executing *schedule*; returns it."""
        return self.kernel.spawn(
            self._drive(schedule.sorted_events()), name="fault-injector"
        )

    def _drive(self, events: list[FaultEvent]):
        for event in events:
            delay = event.time - self.kernel.now
            if delay > 0:
                yield self.kernel.timeout(delay)
            self._execute(event)

    def _note(self, text: str) -> None:
        self.log.append((self.kernel.now, text))

    def _execute(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == "crash":
            node = self.cluster.node(event.node)
            if node.is_up:
                node.crash()
                self._note(f"crash {event.node}")
            else:
                self._note(f"crash {event.node} skipped (already down)")
        elif kind == "restart":
            node = self.cluster.node(event.node)
            if not node.is_up:
                node.restart()
                self._note(f"restart {event.node}")
            else:
                self._note(f"restart {event.node} skipped (already up)")
        elif kind == "cut":
            self.network.partitions.cut_link(event.node, event.peer)
            self._note(f"cut {event.node}<->{event.peer}")
        elif kind == "restore":
            self.network.partitions.restore_link(event.node, event.peer)
            self._note(f"restore {event.node}<->{event.peer}")
        elif kind == "partition":
            self.network.partitions.set_partitions([list(g) for g in event.groups])
            self._note(f"partition {event.describe()}")
        elif kind == "heal":
            self.network.partitions.heal_partitions()
            self._note("heal partitions")
        elif kind == "loss":
            self._loss = event.value
            self._apply_lan()
            self._note(f"loss burst p={event.value:g} for {event.duration:.2f}s")
            self._after(event.duration, self._end_loss)
        elif kind == "jitter":
            self._jitter = event.value
            self._apply_lan()
            self._note(f"jitter burst {event.value:g}s for {event.duration:.2f}s")
            self._after(event.duration, self._end_jitter)
        elif kind == "freeze":
            name = event.node
            self.network.pause_node(name)
            self._frozen.add(name)
            self._note(f"freeze {name} for {event.duration:.2f}s")
            self._after(event.duration, lambda: self._end_freeze(name))
        elif kind == "slow":
            name = event.node
            self.network.set_node_slowdown(name, event.value)
            self._note(f"slow {name} +{event.value:g}s for {event.duration:.2f}s")
            self._after(event.duration, lambda: self._end_slow(name))
        elif kind == "token_loss":
            token = self.network.add_drop_filter(drops_token)
            self._filter_tokens.append(token)
            self._note(f"token loss for {event.duration:.2f}s")
            self._after(event.duration, lambda: self._end_filter(token))
        elif kind == "stop_daemon":
            self.cluster.node(event.node).stop_daemon(event.daemon)
            self._note(f"stop daemon {event.daemon}@{event.node}")

    # -- timed reverts -------------------------------------------------------

    def _after(self, delay: float, action) -> None:
        def timer():
            yield self.kernel.timeout(delay)
            action()

        self.kernel.spawn(timer(), name="fault-revert")

    def _apply_lan(self) -> None:
        lan = self._baseline_lan
        if self._loss is not None:
            lan = lan.with_loss(self._loss)
        if self._jitter is not None:
            lan = lan.with_jitter(self._jitter)
        self.network.lan = lan

    def _end_loss(self) -> None:
        self._loss = None
        self._apply_lan()
        self._note("loss burst over")

    def _end_jitter(self) -> None:
        self._jitter = None
        self._apply_lan()
        self._note("jitter burst over")

    def _end_freeze(self, name: str) -> None:
        if name in self._frozen:
            self._frozen.discard(name)
            self.network.resume_node(name)
            self._note(f"unfreeze {name}")

    def _end_slow(self, name: str) -> None:
        self.network.set_node_slowdown(name, 0.0)
        self._note(f"slow {name} over")

    def _end_filter(self, token: int) -> None:
        self.network.remove_drop_filter(token)
        if token in self._filter_tokens:
            self._filter_tokens.remove(token)
        self._note("token loss over")

    # -- end-of-run hygiene --------------------------------------------------

    def heal_all(self) -> None:
        """Revert every outstanding fault so the system can quiesce:
        baseline link model, no partitions, no freezes/slowdowns/filters,
        and every crashed node restarted."""
        self._loss = self._jitter = None
        self.network.lan = self._baseline_lan
        self.network.partitions.heal_partitions()
        for a, b in list(self.network.partitions.cut_links):
            self.network.partitions.restore_link(a, b)
        for name in list(self._frozen):
            self._end_freeze(name)
        for name in list(self.network.nodes):
            self.network.set_node_slowdown(name, 0.0)
        for token in list(self._filter_tokens):
            self._end_filter(token)
        for node in self.cluster.nodes:
            if not node.is_up:
                node.restart()
                self._note(f"restart {node.name} (end-of-run)")
        self._note("heal all")
