"""RAS (reliability, availability, serviceability) metric recording.

§5: "The JOSHUA solution needs to be deployed on a production-type HPC
environment and respective reliability, availability and serviceability
(RAS) metrics have to be recorded in order to measure its true availability
impact. However ... RAS metrics in a HPC environment are not well defined."

This module is the collector such a deployment would run: it hooks node
lifecycle events across the cluster and turns them into the standard RAS
quantities — per-node failure counts, empirical MTBF/MTTR, per-node and
fleet availability — plus a service-level summary when paired with a
:class:`~repro.ha.probe.ServiceProbe`. Tests validate it against the
known-answer failure schedules of the injectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import Cluster

__all__ = ["RASEvent", "RASCollector"]


@dataclass(frozen=True)
class RASEvent:
    time: float
    node: str
    kind: str  # "fail" | "repair"


class RASCollector:
    """Head-node lifecycle recorder and metric calculator."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.kernel = cluster.kernel
        self.started_at = cluster.kernel.now
        self.events: list[RASEvent] = []
        self._nodes = [n for n in cluster.nodes if n.role == "head"]
        for node in self._nodes:
            node.observe(self._on_lifecycle)

    def _on_lifecycle(self, node, kind: str) -> None:
        mapped = "fail" if kind == "crash" else "repair"
        self.events.append(RASEvent(self.kernel.now, node.name, mapped))

    # -- per-node metrics ------------------------------------------------------

    def node_events(self, name: str) -> list[RASEvent]:
        return [e for e in self.events if e.node == name]

    def failure_count(self, name: str) -> int:
        return sum(1 for e in self.node_events(name) if e.kind == "fail")

    def node_downtime(self, name: str, *, until: float | None = None) -> float:
        """Total seconds *name* spent down in [started_at, until]."""
        horizon = self.kernel.now if until is None else until
        down_since: float | None = None
        total = 0.0
        for event in self.node_events(name):
            if event.time > horizon:
                break
            if event.kind == "fail" and down_since is None:
                down_since = event.time
            elif event.kind == "repair" and down_since is not None:
                total += event.time - down_since
                down_since = None
        if down_since is not None:
            total += horizon - down_since
        return total

    def node_availability(self, name: str) -> float:
        elapsed = self.kernel.now - self.started_at
        if elapsed <= 0:
            return 1.0
        return 1.0 - self.node_downtime(name) / elapsed

    def node_mtbf(self, name: str) -> float | None:
        """Empirical mean time between failures (None before 1 failure)."""
        failures = self.failure_count(name)
        if failures == 0:
            return None
        uptime = (self.kernel.now - self.started_at) - self.node_downtime(name)
        return uptime / failures

    def node_mttr(self, name: str) -> float | None:
        """Empirical mean time to repair (None before a completed repair)."""
        repairs = []
        down_since: float | None = None
        for event in self.node_events(name):
            if event.kind == "fail" and down_since is None:
                down_since = event.time
            elif event.kind == "repair" and down_since is not None:
                repairs.append(event.time - down_since)
                down_since = None
        if not repairs:
            return None
        return sum(repairs) / len(repairs)

    # -- fleet / service -----------------------------------------------------------

    def all_heads_down_time(self) -> float:
        """Seconds during which *every* monitored node was simultaneously
        down — the symmetric active/active definition of service outage."""
        timeline: list[tuple[float, str, str]] = sorted(
            (e.time, e.node, e.kind) for e in self.events
        )
        down: set[str] = set()
        all_down_since: float | None = None
        total = 0.0
        names = {n.name for n in self._nodes}
        for time, node, kind in timeline:
            if kind == "fail":
                down.add(node)
                if down >= names and all_down_since is None:
                    all_down_since = time
            else:
                if down >= names and all_down_since is not None:
                    total += time - all_down_since
                    all_down_since = None
                down.discard(node)
        if all_down_since is not None:
            total += self.kernel.now - all_down_since
        return total

    def report(self) -> list[dict]:
        """One row per monitored node."""
        rows = []
        for node in self._nodes:
            name = node.name
            mtbf = self.node_mtbf(name)
            mttr = self.node_mttr(name)
            rows.append(
                {
                    "node": name,
                    "failures": self.failure_count(name),
                    "downtime_s": round(self.node_downtime(name), 2),
                    "availability": round(self.node_availability(name), 6),
                    "mtbf_s": round(mtbf, 2) if mtbf is not None else None,
                    "mttr_s": round(mttr, 2) if mttr is not None else None,
                }
            )
        return rows
