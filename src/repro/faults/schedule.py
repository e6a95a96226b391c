"""Declarative fault scenarios: typed events, builders, JSON form, RNG soak.

A :class:`FaultSchedule` is the script of a chaos run: a list of typed
:class:`FaultEvent` records placed on the simulated clock. Schedules are
built three ways:

* **programmatically** with the chainable builder methods
  (``schedule.crash(5.0, "head0").restart(9.0, "head0")``);
* **declaratively** from a dict/JSON document (:meth:`FaultSchedule.from_dict`
  / :meth:`from_json`) so scenarios can live next to experiment configs;
* **randomly** with :func:`random_schedule`, the seeded generator behind
  ``repro chaos soak`` — the seed fully determines the scenario, so any
  failing soak run is replayable from its printed seed.

Event kinds and their fields::

    crash      node                    fail-stop a node
    restart    node                    bring a crashed node back (daemons too)
    cut        node, peer              cut one link (partition.cut_link)
    restore    node, peer              undo one cut
    partition  groups                  set_partitions(groups)
    heal       -                       heal_partitions()
    loss       value, duration        LAN-wide loss burst (probability)
    jitter     value, duration        LAN-wide jitter burst (seconds)
    freeze     node, duration         network blackout; processes survive
    slow       node, value, duration  per-node extra latency episode
    token_loss duration                drop ordering-token frames on the wire
    stop_daemon node, daemon           clean process kill (no node crash)

Timed kinds (``loss``/``jitter``/``freeze``/``slow``/``token_loss``) revert
automatically after ``duration`` seconds; the discrete kinds need an
explicit recovery event.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from repro.util.errors import ClusterError
from repro.util.rng import RandomStreams

__all__ = ["FaultEvent", "FaultSchedule", "random_schedule"]

#: Kinds that revert themselves after ``duration`` seconds.
TIMED_KINDS = {"loss", "jitter", "freeze", "slow", "token_loss"}
#: Kinds applied instantaneously (recovery, if any, is its own event).
DISCRETE_KINDS = {"crash", "restart", "cut", "restore", "partition", "heal",
                  "stop_daemon"}
KINDS = TIMED_KINDS | DISCRETE_KINDS


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault; unused fields stay ``None``."""

    time: float
    kind: str
    node: str | None = None
    peer: str | None = None
    groups: tuple[tuple[str, ...], ...] | None = None
    value: float | None = None
    duration: float | None = None
    daemon: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ClusterError(f"unknown fault kind {self.kind!r}")
        if self.time < 0:
            raise ClusterError("fault time must be non-negative")
        if self.kind in ("crash", "restart", "freeze", "slow", "stop_daemon") \
                and not self.node:
            raise ClusterError(f"{self.kind} needs a node")
        if self.kind in ("cut", "restore") and not (self.node and self.peer):
            raise ClusterError(f"{self.kind} needs a node pair")
        if self.kind == "partition" and not self.groups:
            raise ClusterError("partition needs node groups")
        if self.kind == "stop_daemon" and not self.daemon:
            raise ClusterError("stop_daemon needs a daemon name")
        if self.kind in TIMED_KINDS and (self.duration is None or self.duration <= 0):
            raise ClusterError(f"{self.kind} needs a positive duration")
        if self.kind == "loss" and not (self.value is not None and 0 <= self.value < 1):
            raise ClusterError("loss needs a probability value < 1")
        if self.kind in ("jitter", "slow") and (self.value is None or self.value < 0):
            raise ClusterError(f"{self.kind} needs a non-negative value")

    @property
    def end_time(self) -> float:
        return self.time + (self.duration or 0.0)

    def to_dict(self) -> dict:
        out: dict = {"time": self.time, "kind": self.kind}
        if self.node is not None:
            out["node"] = self.node
        if self.peer is not None:
            out["peer"] = self.peer
        if self.groups is not None:
            out["groups"] = [list(g) for g in self.groups]
        if self.value is not None:
            out["value"] = self.value
        if self.duration is not None:
            out["duration"] = self.duration
        if self.daemon is not None:
            out["daemon"] = self.daemon
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        groups = data.get("groups")
        return cls(
            time=float(data["time"]),
            kind=str(data["kind"]),
            node=data.get("node"),
            peer=data.get("peer"),
            groups=tuple(tuple(g) for g in groups) if groups is not None else None,
            value=data.get("value"),
            duration=data.get("duration"),
            daemon=data.get("daemon"),
        )

    def describe(self) -> str:
        parts = [self.kind]
        if self.node:
            parts.append(self.node)
        if self.peer:
            parts.append(f"<->{self.peer}")
        if self.groups:
            parts.append("|".join("+".join(g) for g in self.groups))
        if self.value is not None:
            parts.append(f"v={self.value:g}")
        if self.duration is not None:
            parts.append(f"for {self.duration:.2f}s")
        if self.daemon:
            parts.append(self.daemon)
        return " ".join(parts)


@dataclass
class FaultSchedule:
    """An ordered fault scenario; builder-style helpers chain."""

    events: list[FaultEvent] = field(default_factory=list)

    # -- builders ------------------------------------------------------------

    def crash(self, time: float, node: str) -> "FaultSchedule":
        self.events.append(FaultEvent(time, "crash", node=node))
        return self

    def restart(self, time: float, node: str) -> "FaultSchedule":
        self.events.append(FaultEvent(time, "restart", node=node))
        return self

    def cut(self, time: float, a: str, b: str) -> "FaultSchedule":
        self.events.append(FaultEvent(time, "cut", node=a, peer=b))
        return self

    def restore(self, time: float, a: str, b: str) -> "FaultSchedule":
        self.events.append(FaultEvent(time, "restore", node=a, peer=b))
        return self

    def partition(self, time: float, groups: Sequence[Sequence[str]]) -> "FaultSchedule":
        self.events.append(
            FaultEvent(time, "partition", groups=tuple(tuple(g) for g in groups))
        )
        return self

    def heal(self, time: float) -> "FaultSchedule":
        self.events.append(FaultEvent(time, "heal"))
        return self

    def loss_burst(self, time: float, loss: float, duration: float) -> "FaultSchedule":
        self.events.append(FaultEvent(time, "loss", value=loss, duration=duration))
        return self

    def jitter_burst(self, time: float, jitter: float, duration: float) -> "FaultSchedule":
        self.events.append(FaultEvent(time, "jitter", value=jitter, duration=duration))
        return self

    def freeze(self, time: float, node: str, duration: float) -> "FaultSchedule":
        self.events.append(FaultEvent(time, "freeze", node=node, duration=duration))
        return self

    def slow_node(self, time: float, node: str, extra: float, duration: float) -> "FaultSchedule":
        self.events.append(
            FaultEvent(time, "slow", node=node, value=extra, duration=duration)
        )
        return self

    def token_loss(self, time: float, duration: float) -> "FaultSchedule":
        self.events.append(FaultEvent(time, "token_loss", duration=duration))
        return self

    def stop_daemon(self, time: float, node: str, daemon: str) -> "FaultSchedule":
        self.events.append(FaultEvent(time, "stop_daemon", node=node, daemon=daemon))
        return self

    # -- queries -------------------------------------------------------------

    def sorted_events(self) -> list[FaultEvent]:
        return sorted(self.events, key=lambda e: e.time)

    def horizon(self) -> float:
        """Time by which every event (including timed reverts) is over."""
        return max((e.end_time for e in self.events), default=0.0)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        return {"events": [e.to_dict() for e in self.sorted_events()]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        return cls([FaultEvent.from_dict(e) for e in data.get("events", [])])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        return cls.from_dict(json.loads(text))


#: Longest head freeze :func:`random_schedule` draws (seconds).
HEAD_FREEZE_MAX = 0.25


def random_schedule(
    seed: int,
    *,
    heads: Sequence[str],
    computes: Sequence[str] = (),
    duration: float = 30.0,
    intensity: int = 3,
    ordering: str = "sequencer",
) -> FaultSchedule:
    """Seeded random scenario for soak runs.

    The generator is careful about *survivability*, not gentleness: faults
    are drawn from the full menu, but each one is confined to its own time
    slot with its recovery inside the slot, at most one head is out at a
    time, and head freezes stay under ``HEAD_FREEZE_MAX`` (below the
    suspect timeout) so a blacked-out head is delayed, not excluded —
    application-level resync after a false exclusion is out of the paper's
    scope. The whole scenario is a pure function of *seed*.
    """
    if intensity < 1:
        raise ClusterError("intensity must be at least 1")
    rng = RandomStreams(seed).get("fault-schedule")
    heads = list(heads)
    computes = list(computes)
    schedule = FaultSchedule()

    menu = ["loss", "jitter", "slow_head"]
    if len(heads) >= 2:
        menu += ["head_crash", "head_cut", "head_freeze"]
    if computes:
        menu += ["compute_crash", "compute_freeze"]
    if ordering == "token":
        menu.append("token_loss")

    # One fault per non-overlapping slot inside the active window
    # [0.1, 0.65) * duration; everything recovers by 0.75 * duration.
    window_start, window_end = 0.1 * duration, 0.65 * duration
    slot = (window_end - window_start) / intensity
    for i in range(intensity):
        lo = window_start + i * slot
        start = lo + rng.uniform(0.0, 0.25 * slot)
        span = rng.uniform(0.35, 0.7) * slot
        end = min(start + span, lo + 0.95 * slot)
        kind = menu[rng.integers(len(menu))]
        if kind == "head_crash":
            victim = heads[rng.integers(len(heads))]
            schedule.crash(start, victim).restart(end, victim)
        elif kind == "compute_crash":
            victim = computes[rng.integers(len(computes))]
            schedule.crash(start, victim).restart(end, victim)
        elif kind == "head_cut":
            a = rng.integers(len(heads))
            b = rng.integers(len(heads) - 1)  # any head but ``a``
            if b >= a:
                b += 1
            schedule.cut(start, heads[a], heads[b])
            schedule.restore(end, heads[a], heads[b])
        elif kind == "head_freeze":
            victim = heads[rng.integers(len(heads))]
            dur = min(HEAD_FREEZE_MAX, end - start)
            schedule.freeze(start, victim, dur)
        elif kind == "compute_freeze":
            victim = computes[rng.integers(len(computes))]
            schedule.freeze(start, victim, min(1.5, end - start))
        elif kind == "loss":
            schedule.loss_burst(start, rng.uniform(0.05, 0.2), end - start)
        elif kind == "jitter":
            schedule.jitter_burst(start, rng.uniform(0.001, 0.01), end - start)
        elif kind == "slow_head":
            victim = heads[rng.integers(len(heads))]
            schedule.slow_node(start, victim, rng.uniform(0.001, 0.02), end - start)
        elif kind == "token_loss":
            schedule.token_loss(start, min(1.0, end - start))
    return schedule
