"""Trace events and per-job causal traces.

A :class:`TraceEvent` is one timestamped observation; the collector keeps a
flat bounded log of them plus a :class:`JobTrace` per *causal trace id*.
The trace id is the replicated command UUID (``jsub-login-3``) — already
globally unique, already on the wire — so causality is stitched from
identifiers the protocols carry anyway, and observing a run never adds a
single wire byte. Once the serial executor learns the PBS job id a command
produced, the collector aliases ``job_id -> uuid`` and later lifecycle
events (claims, launches, obituaries — all keyed by job id) land in the
same trace.

Span kinds (see PROTOCOLS.md §7 for the full naming scheme):

* ``rpc.send`` / ``rpc.call`` / ``rpc.dispatch`` — client and server RPC;
* ``gcs.mcast`` / ``gcs.order`` / ``gcs.deliver`` — the ordering pipeline;
* ``job.*`` — the job lifecycle:
  ``sent → received → ordered → executed → acked`` for the command half,
  ``jmutex → claim → decided → launched → obit`` for the launch half.
"""

from __future__ import annotations

__all__ = ["TraceEvent", "JobTrace", "PHASE_EDGES", "PHASE_ORDER"]


class TraceEvent:
    """One observation, stamped with simulated time.

    A slotted record, built once per span and never changed afterwards:
    the collector's log, the job traces, the flight recorder's rings and
    its bundles all hold the same instance by reference. It holds no dict:
    ``keys`` names the fields (one tuple shared by every span of a shape)
    and ``values`` holds them in the same order.
    """

    __slots__ = ("time", "kind", "node", "trace_id", "keys", "values")

    def __init__(self, time: float, kind: str, node: str,
                 trace_id: str | None = None, keys: tuple = (),
                 values: tuple = ()):
        self.time = time
        self.kind = kind
        self.node = node
        self.trace_id = trace_id
        self.keys = keys
        self.values = values

    @property
    def fields(self) -> dict:
        """The fields by name, a fresh dict on every read."""
        return dict(zip(self.keys, self.values))

    def get(self, key: str, default=None):
        """One field's value, without building :attr:`fields`."""
        return self.values[self.keys.index(key)] if key in self.keys else default

    def to_dict(self) -> dict:
        """Machine-readable form, shape-compatible with
        :meth:`repro.util.simlog.LogRecord.to_dict` (``type`` discriminates)."""
        return {
            "type": "span",
            "time": self.time,
            "kind": self.kind,
            "node": self.node,
            "trace_id": self.trace_id,
            "fields": self.fields,
        }


#: Phase name -> (end event kind, start event kind). A phase is measured
#: between the *first* occurrence of each kind in the trace — the causal
#: decomposition of one jsub's life, directly comparable to Figure 10's
#: latency breakdown (ordering overhead vs. PBS execution vs. reply).
PHASE_EDGES = {
    "submit_rpc": ("job.acked", "job.sent"),
    "ordering": ("job.ordered", "job.received"),
    "execute": ("job.executed", "job.ordered"),
    "reply": ("job.acked", "job.executed"),
    "dispatch": ("job.jmutex", "job.executed"),
    "arbitrate": ("job.decided", "job.jmutex"),
    "launch": ("job.launched", "job.decided"),
    "run": ("job.obit", "job.launched"),
}

#: Presentation order for phase breakdowns.
PHASE_ORDER = [
    "submit_rpc", "ordering", "execute", "reply",
    "dispatch", "arbitrate", "launch", "run",
]


class JobTrace:
    """Every observed event of one causal trace (one command / one job)."""

    __slots__ = ("trace_id", "command", "job_id", "events")

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        #: Command kind ("jsub" / "jdel" / "jstat"), once known.
        self.command: str | None = None
        #: PBS job id, once the executor reported it.
        self.job_id: str | None = None
        self.events: list[TraceEvent] = []

    def first(self, kind: str) -> TraceEvent | None:
        for event in self.events:
            if event.kind == kind:
                return event
        return None

    def phases(self) -> dict[str, float]:
        """Per-phase durations (seconds) computable from this trace."""
        out: dict[str, float] = {}
        for phase in PHASE_ORDER:
            end_kind, start_kind = PHASE_EDGES[phase]
            start = self.first(start_kind)
            end = self.first(end_kind)
            if start is not None and end is not None and end.time >= start.time:
                out[phase] = end.time - start.time
        return out

    @property
    def started_at(self) -> float | None:
        return self.events[0].time if self.events else None

    def to_dict(self) -> dict:
        return {
            "type": "job",
            "trace_id": self.trace_id,
            "command": self.command,
            "job_id": self.job_id,
            "phases": self.phases(),
            "events": [e.to_dict() for e in self.events],
        }
