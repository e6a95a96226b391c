"""The flight recorder: bounded per-node rings and postmortem bundles.

A :class:`FlightRecorder` passively keeps the **last K observations per
node** — spans (every :class:`~repro.obs.events.TraceEvent` the collector
records, which includes the GCS lifecycle: failure-detector transitions,
view installs and sequencer handoffs), and wire frames (type / size / src /
dst, from the network's ``on_frame`` hook) — so that when something goes
wrong the seconds *leading up to* the failure are reconstructible, not just
the failure itself. That is the debugging instrument the Microsoft Cluster
Service retrospective credits for making regroup incidents tractable: a
bounded, always-on event log per node.

Rings hold what the hooks hand over — the immutable span itself, and a
``(time, src, dst, kind, size)`` tuple per frame — so feeding them costs an
append.

A **postmortem bundle** is a causally merged (time-sorted) snapshot of all
rings plus the trigger that caused it. It keeps the ring entries it took,
not records: its ``records`` are formatted into their export shape each
time something reads them (:func:`write_bundle`, :func:`timeline_lines`).
Bundles are captured automatically when

* an :class:`~repro.faults.invariants.InvariantSuite` check fails (the
  suite reaches the recorder through its network's collector at its
  violation site),
* the determinism sanitizer records an
  :class:`~repro.sim.sanitizer.Ambiguity` or
  :class:`~repro.sim.sanitizer.AliasingViolation` (via the sanitizer's
  ``on_finding`` callback), or
* an RPC conversation exhausts its retries (the ``rpc.call`` span with
  ``outcome="timeout"`` the collector emits for every timed-out
  conversation),

and on demand via :meth:`FlightRecorder.capture`. Bundles are written as
JSONL (one header record, then the merged timeline) and rendered
human-readable by :func:`timeline_lines` — the ``repro postmortem``
CLI surface.

**Passivity.** The recorder only appends to plain containers: no simulation
events, no RNG, no wire bytes. ``tests/integration/test_obs_passive.py``
holds runs with the recorder attached to bit-identical wire traces.
"""

from __future__ import annotations

import json
from collections import deque
from typing import TYPE_CHECKING

from repro.net.address import dst_text
from repro.obs.collector import attach_collector
from repro.obs.export import write_jsonl

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.obs.events import TraceEvent

__all__ = [
    "FlightRecorder",
    "attach_recorder",
    "timeline_lines",
    "write_bundle",
    "read_bundle",
]

class FlightRecorder:
    """Bounded per-node observation rings with postmortem capture."""

    #: Per-node ring capacity (observations, spans + frames combined), read
    #: when a node's ring is created.
    ring_limit = 512

    #: Cap on retained bundles **per trigger reason**, read at every
    #: capture. The *first* failures of each kind are the interesting ones
    #: (later ones are usually cascade), and a per-reason cap keeps a flood
    #: of one trigger class (e.g. expected RPC timeouts while a head is
    #: down) from crowding out a rarer, more serious one (an invariant
    #: violation). Past the cap the recorder only counts what it dropped.
    max_bundles = 8

    def __init__(self, network: "Network"):
        self.network = network
        self.kernel = network.kernel
        #: node name -> ring of observations: a :class:`TraceEvent` or a
        #: ``(time, src, dst, kind, size)`` frame tuple.
        self.rings: dict[str, deque] = {}
        #: Captured bundles, oldest first, at most ``max_bundles`` per
        #: distinct trigger reason.
        self.bundles: list[dict] = []
        #: Bundles not retained because their reason's cap was reached.
        self.dropped_bundles = 0
        self._bundle_counts: dict[str, int] = {}
        #: Total observations fed to the rings (monotonic; ring eviction
        #: does not decrement it).
        self.observed = 0

    # -- feed side (hook callbacks) -----------------------------------------

    def _ring(self, node: str) -> deque:
        ring = self.rings.get(node)
        if ring is None:
            ring = self.rings[node] = deque(maxlen=self.ring_limit)
        return ring

    def on_trace_event(self, event: "TraceEvent") -> None:
        """Every span the collector records lands in its node's ring; an
        exhausted RPC conversation additionally triggers a capture."""
        self.observed += 1
        self._ring(event.node).append(event)
        if event.kind == "rpc.call" and event.get("outcome") == "timeout":
            self.capture(
                "rpc-exhausted",
                f"{event.get('request')} from {event.node} to "
                f"{event.get('dst')} gave up after "
                f"{event.get('attempts')} attempt(s)",
            )

    def on_frame(self, now: float, src, dst, kind: str, size: int,
                 payload) -> None:
        """Network ``on_frame`` hook: offered wire frames, recorded against
        the *sending* node (that is where the causal story unfolds) — one
        entry per frame, a group frame's ``dst`` naming its whole group."""
        self.observed += 1
        self._ring(src.node).append((now, src, dst, kind, size))

    def on_sanitizer_finding(self, finding) -> None:
        """Sanitizer ``on_finding`` hook: Ambiguity / AliasingViolation."""
        self.capture(
            f"sanitizer-{type(finding).__name__.lower()}", finding.describe()
        )

    # -- capture -------------------------------------------------------------

    def capture(self, reason: str, detail: str = "") -> dict:
        """Snapshot every ring into one causally merged postmortem bundle.

        Always returns the bundle; it is retained in :attr:`bundles` only
        while its *reason* is under :attr:`max_bundles` captures (the count
        of shed later bundles is kept in :attr:`dropped_bundles`).
        """
        entries: list = []
        for node in sorted(self.rings):
            entries.extend(self.rings[node])
        # Stable sort: same-time records keep per-node append order, nodes
        # interleave in sorted-name order — deterministic and readable.
        entries.sort(key=lambda e: e[0] if type(e) is tuple else e.time)
        bundle = {
            "type": "postmortem",
            "reason": reason,
            "detail": detail,
            "time": self.kernel.now,
            "nodes": sorted(self.rings),
            "record_count": len(entries),
            "records": _Timeline(entries),
        }
        kept = self._bundle_counts.get(reason, 0)
        if kept < self.max_bundles:
            self._bundle_counts[reason] = kept + 1
            self.bundles.append(bundle)
        else:
            self.dropped_bundles += 1
        return bundle


class _Timeline:
    """A captured bundle's ``records``: the ring entries its capture took,
    formatted into fresh export records on every read, and equal to the
    list of those records."""

    __slots__ = ("entries",)

    def __init__(self, entries: list):
        self.entries = entries

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        texts: dict = {}  # a bundle's frames come from a few addresses
        return (_record(entry, texts) for entry in self.entries)

    def __getitem__(self, index):
        return list(self)[index]

    def __eq__(self, other) -> bool:
        return list(self) == other


def _record(entry, texts: dict) -> dict:
    """The export record of one ring observation (*texts* memoises the
    spelling of addresses and groups across one read)."""
    if type(entry) is not tuple:
        return entry.to_dict()
    time, src, dst, kind, size = entry
    src_text = texts.get(src)
    if src_text is None:
        src_text = texts[src] = str(src)
    dst_spelled = texts.get(dst)
    if dst_spelled is None:
        dst_spelled = texts[dst] = dst_text(dst)
    return {
        "type": "frame",
        "time": time,
        "node": src.node,
        "src": src_text,
        "dst": dst_spelled,
        "kind": kind,
        "size": size,
    }


# -- attachment ------------------------------------------------------------


def attach_recorder(network: "Network") -> FlightRecorder:
    """Attach (or return the already-attached) flight recorder.

    Ensures a collector is attached and hangs the recorder on it as
    ``collector.recorder`` (the collector hands it every span it records),
    registers the network frame hook, and — when the kernel runs with
    ``sanitize=True`` — the sanitizer finding hook.
    """
    collector = attach_collector(network)
    if collector.recorder is not None:
        return collector.recorder
    recorder = collector.recorder = FlightRecorder(network)
    network.on_frame.append(recorder.on_frame)
    sanitizer = network.kernel.sanitizer
    if sanitizer is not None:
        sanitizer.on_finding = recorder.on_sanitizer_finding
    return recorder


# -- bundle rendering & I/O ------------------------------------------------


def _describe_record(record: dict) -> str:
    kind = record.get("type")
    if kind == "frame":
        return (
            f"FRAME {record.get('kind'):<16} {record.get('src')} -> "
            f"{record.get('dst')} ({record.get('size')}B)"
        )
    fields = record.get("fields") or {}
    extra = "".join(f" {k}={v!r}" for k, v in sorted(fields.items()))
    trace = record.get("trace_id")
    tag = f" [{trace}]" if trace else ""
    return f"span  {record.get('kind'):<16}{tag}{extra}"


def timeline_lines(bundle: dict, *, limit: int | None = None) -> list[str]:
    """Human-readable rendering of one postmortem bundle.

    With *limit*, only the last *limit* timeline records are shown (the
    ones closest to the trigger).
    """
    records = bundle.get("records", [])
    shown = records if limit is None or len(records) <= limit else records[-limit:]
    lines = [
        f"POSTMORTEM [{bundle.get('reason')}] at t={bundle.get('time', 0.0):.4f}",
        f"  {bundle.get('detail')}",
        f"  nodes: {', '.join(bundle.get('nodes', []))} — "
        f"{len(records)} record(s)"
        + ("" if shown is records else f", last {len(shown)} shown"),
    ]
    for record in shown:
        lines.append(
            f"  t={record.get('time', 0.0):.4f} "
            f"[{record.get('node', '?'):<8}] {_describe_record(record)}"
        )
    return lines


def write_bundle(bundle: dict, path) -> int:
    """Write one bundle as JSONL: a header record (the bundle metadata,
    ``records`` elided) followed by the merged timeline, one record per
    line. Returns the number of lines written."""
    header = {k: v for k, v in bundle.items() if k != "records"}
    return write_jsonl(path, [header, *bundle.get("records", [])])


def read_bundle(path) -> dict:
    """Re-assemble a bundle written by :func:`write_bundle`; a line that is
    not a JSON object raises ``ValueError`` naming the file and the line."""
    with open(path) as fh:
        lines = [
            (number, line)
            for number, line in enumerate(fh.read().splitlines(), 1)
            if line.strip()
        ]
    if not lines:
        raise ValueError(f"empty postmortem bundle: {path}")
    header, *records = (_object(path, *line) for line in lines)
    if header.get("type") != "postmortem":
        raise ValueError(f"not a postmortem bundle (header type "
                         f"{header.get('type')!r}): {path}")
    header["records"] = records
    return header


def _object(path, number: int, line: str) -> dict:
    record = json.loads(line)
    if type(record) is not dict:
        raise ValueError(f"not a JSON object on line {number}: {path}")
    return record
