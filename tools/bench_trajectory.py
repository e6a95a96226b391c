"""Per-PR performance trajectory: measure, append, and gate.

The ROADMAP's raw-speed program needs a *trajectory*, not a one-off
number: every PR appends a snapshot of the three load-bearing rates to
``BENCH_trajectory.json``, and CI gates each PR against the committed
baseline so a silent slowdown cannot land. The three probes:

* **committed cmd/s** — the burst bench (``measure_offered_burst``):
  concurrent jsubs against 3 heads on the batched DATA path, committed
  commands per *simulated* second. Deterministic (the simulation is
  seeded), so the gate band is tight.
* **wire bytes/cmd** — same run, encoded bytes on the wire per committed
  command. Also deterministic and tightly gated (this is the figure PR 6
  spent -60% on; it must not creep back).
* **read QPS** — the saturated local-read probe (``measure_read_mix``):
  an open-loop read mix offered above a 2-head stack's read capacity, so
  the figure is the capacity of the local read path (PROTOCOLS.md §12)
  in committed reads per *simulated* second. Deterministic, tight band.
* **kernel events/s and codec MB/s (wall clock)** — how fast
  ``Kernel.run`` drains its heap and how fast the codec round-trips a
  frame mix weighted like the measured traffic (one deep scheduler poll
  reply plus the GCS records), per wall-clock second. Machine-dependent, so
  the gate only rejects *gross* regressions (default: slower than
  ``0.3x`` baseline — an algorithmic cliff, not scheduler jitter).

Usage::

    PYTHONPATH=src python tools/bench_trajectory.py measure --label pr8
    PYTHONPATH=src python tools/bench_trajectory.py measure --label pr8 --scale smoke
    PYTHONPATH=src python tools/bench_trajectory.py gate --scale smoke
    PYTHONPATH=src python tools/bench_trajectory.py show

``measure`` appends (or replaces, for an existing label+scale) a snapshot;
``gate`` re-measures at the requested scale and exits 1 if any metric
falls outside its band versus the *last committed* snapshot of that scale.
The committed file carries no timestamps — git history dates it — so
re-measuring a deterministic metric on any machine reproduces the stored
value exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

#: Probe scales: burst size for the simulation probes and iteration count
#: for the codec probe. ``smoke`` is the per-PR CI gate (seconds); ``full``
#: is the per-PR trajectory snapshot.
SCALES = {
    "full": {"heads": 3, "jobs": 50, "codec_iters": 4000,
             "read_duration": 4.0, "read_rate": 200.0},
    "smoke": {"heads": 3, "jobs": 12, "codec_iters": 800,
              "read_duration": 2.0, "read_rate": 200.0},
}

#: Gate bands per metric. ``deterministic`` metrics reproduce exactly on
#: any machine, so their band is a tight relative tolerance; wall-clock
#: metrics only gate an order-of-magnitude cliff. ``direction`` is the
#: *good* direction.
METRICS = {
    "burst_committed_cmd_per_s": {
        "direction": "higher", "deterministic": True, "tolerance": 0.05,
    },
    "burst_wire_bytes_per_cmd": {
        "direction": "lower", "deterministic": True, "tolerance": 0.05,
    },
    "read_local_qps": {
        "direction": "higher", "deterministic": True, "tolerance": 0.05,
    },
    "kernel_events_per_wall_s": {
        "direction": "higher", "deterministic": False, "tolerance": 0.70,
    },
    "codec_mb_per_wall_s": {
        "direction": "higher", "deterministic": False, "tolerance": 0.70,
    },
}


#: Rows in the probe's Maui poll reply: the mean job-table depth of the
#: benchmark's ``submit-deep`` workload (the table grows from 0 to 240).
POLL_ROWS = 120


def _representative_frames():
    """A frame mix shaped like the measured traffic. By encoded bytes the
    scheduler's poll reply (``SchedPollResp``: one ten-key ``dict`` row per
    job, over loopback) is 69-93 % of what the codec handles on the four
    ``perf/`` workloads, so one reply at ``POLL_ROWS`` jobs dominates the
    mix the way it dominates the runs — built as the server builds it,
    from ``JobQueue.to_wire()``'s pre-encoded rows, and decoded over and
    over by one codec, as a head's Maui decodes an unchanged table; the GCS
    records ride along: DATA carrying a typed submit payload, batched ORDER
    assignments, STABLE acks, heartbeats."""
    from repro.gcs.messages import (
        DataMsg,
        Heartbeat,
        MessageId,
        OrderMsg,
        StableMsg,
    )
    from repro.net.address import Address
    from repro.pbs.job import Job, JobSpec
    from repro.pbs.queue import JobQueue
    from repro.pbs.wire import SchedPollResp
    from repro.rpc.wire import Reply

    sender = Address("head0", 7400)
    frames = []
    for i in range(8):
        frames.append(DataMsg(
            MessageId(sender, i), 3, "safe",
            ("jsub", f"job-{i}", "workq", 3600.0, i),
        ))
    frames.append(OrderMsg(
        3, tuple((i, MessageId(sender, i)) for i in range(8))
    ))
    frames.append(StableMsg(3, 8))
    frames.append(Heartbeat(3, 8))
    queue = JobQueue()
    for i in range(1, POLL_ROWS + 1):
        queue.add(Job(f"{i}.torque", JobSpec(name=f"job-{i:04d}", walltime=3600.0),
                      submit_time=float(i)))
    frames.append(Reply(1, SchedPollResp(
        tuple(queue.to_wire()), (("compute0", True), ("compute1", False)))))
    return frames


def probe_codec(iters: int) -> dict:
    """Encode+decode the representative frame mix *iters* times; returns
    wall-clock MB/s (encode+decode round trip, encoded size counted once)."""
    from repro.net.codec import WIRE

    frames = _representative_frames()
    total_bytes = 0
    start = time.perf_counter()
    for _ in range(iters):
        for frame in frames:
            raw = WIRE.encode(frame)
            WIRE.decode(raw)
            total_bytes += len(raw)
    elapsed = time.perf_counter() - start
    return {
        "codec_mb_per_wall_s": round(total_bytes / elapsed / 1e6, 2),
        "codec_bytes": total_bytes,
    }


def probe_burst(heads: int, jobs: int) -> dict:
    """The burst bench on the batched DATA path: committed cmd/s in sim
    time (deterministic), wire bytes per command (deterministic), and
    kernel events per wall second (machine-dependent)."""
    from repro.bench.experiments.throughput import measure_offered_burst

    start = time.perf_counter()
    row = measure_offered_burst(heads, jobs, seed=1, batching=True)
    wall = time.perf_counter() - start
    return {
        "burst_committed_cmd_per_s": round(jobs / row["elapsed_s"], 2),
        "burst_wire_bytes_per_cmd": row["bytes_wire_per_command"],
        "kernel_events_per_wall_s": round(row["events"] / wall),
        "burst_events": row["events"],
    }


def probe_read(duration: float, rate: float) -> dict:
    """Saturated local-read capacity on 2 heads: offer *rate* reads/s
    (above capacity) open-loop for *duration* simulated seconds; the
    completed-read rate is the per-head capacity times two."""
    from repro.bench.experiments.read_scaling import measure_read_mix

    row = measure_read_mix(
        heads=2, duration=duration, read_rate=rate, write_rate=2.0,
        clients=30, seed=1,
    )
    return {
        "read_local_qps": row["read_qps"],
        "read_fallbacks": row["reads_fallback"],
    }


def measure(scale: str) -> dict:
    """Run every probe at *scale*; returns the metric dict."""
    params = SCALES[scale]
    metrics = probe_burst(params["heads"], params["jobs"])
    metrics.update(probe_read(params["read_duration"], params["read_rate"]))
    metrics.update(probe_codec(params["codec_iters"]))
    return metrics


# -- trajectory file ---------------------------------------------------------


def load_trajectory(path: str) -> dict:
    if not os.path.exists(path):
        return {"snapshots": []}
    with open(path) as fh:
        return json.load(fh)


def save_trajectory(data: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def append_snapshot(data: dict, label: str, scale: str, metrics: dict) -> dict:
    """Append (or replace, same label+scale) one snapshot; returns it."""
    snapshot = {"label": label, "scale": scale, "metrics": metrics}
    data["snapshots"] = [
        s for s in data["snapshots"]
        if not (s["label"] == label and s["scale"] == scale)
    ]
    data["snapshots"].append(snapshot)
    return snapshot


def baseline_for(data: dict, scale: str) -> dict | None:
    """The most recent committed snapshot at *scale* (append order)."""
    matching = [s for s in data.get("snapshots", []) if s["scale"] == scale]
    return matching[-1] if matching else None


# -- the gate ----------------------------------------------------------------


def compare_snapshots(baseline: dict, current: dict) -> list[str]:
    """Regressions of *current* metrics versus *baseline* metrics, one
    human-readable line each (empty = gate passes). Only metrics named in
    :data:`METRICS` participate; a metric missing from either side is
    skipped (schema growth must not fail old baselines)."""
    failures = []
    for name, spec in METRICS.items():
        base = baseline.get(name)
        cur = current.get(name)
        if base is None or cur is None or base == 0:
            continue
        tolerance = spec["tolerance"]
        if spec["direction"] == "higher":
            floor = base * (1.0 - tolerance)
            if cur < floor:
                failures.append(
                    f"{name}: {cur:g} < {floor:g} "
                    f"(baseline {base:g}, tolerance -{tolerance:.0%})"
                )
        else:
            ceiling = base * (1.0 + tolerance)
            if cur > ceiling:
                failures.append(
                    f"{name}: {cur:g} > {ceiling:g} "
                    f"(baseline {base:g}, tolerance +{tolerance:.0%})"
                )
    return failures


def run_gate(path: str, scale: str) -> tuple[str, int]:
    """Measure at *scale* and compare against the committed baseline;
    returns (report text, exit code)."""
    data = load_trajectory(path)
    baseline = baseline_for(data, scale)
    if baseline is None:
        return (
            f"no committed {scale!r} baseline in {path} — "
            "run `bench_trajectory.py measure` and commit the file",
            1,
        )
    current = measure(scale)
    lines = [f"perf gate ({scale}) vs committed '{baseline['label']}':"]
    for name in METRICS:
        base, cur = baseline["metrics"].get(name), current.get(name)
        if base is None or cur is None:
            continue
        lines.append(f"  {name:<28} baseline={base:<12g} current={cur:g}")
    failures = compare_snapshots(baseline["metrics"], current)
    if failures:
        lines.append("REGRESSION:")
        lines.extend(f"  {f}" for f in failures)
        return "\n".join(lines), 1
    lines.append("gate passed")
    return "\n".join(lines), 0


def show(path: str) -> str:
    data = load_trajectory(path)
    if not data["snapshots"]:
        return f"(no snapshots in {path})"
    names = list(METRICS)
    header = f"{'label':<12} {'scale':<6} " + " ".join(f"{n:>26}" for n in names)
    lines = [header]
    for snap in data["snapshots"]:
        row = f"{snap['label']:<12} {snap['scale']:<6} "
        row += " ".join(
            f"{snap['metrics'].get(n, '-'):>26}" for n in names
        )
        lines.append(row)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="per-PR performance trajectory: measure / gate / show"
    )
    parser.add_argument("--file", default="BENCH_trajectory.json",
                        help="trajectory file (default: %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd_measure = sub.add_parser("measure", help="append a snapshot")
    cmd_measure.add_argument("--label", required=True,
                             help="snapshot label (e.g. the PR name)")
    cmd_measure.add_argument("--scale", choices=sorted(SCALES), default="full")

    cmd_gate = sub.add_parser("gate", help="fail on regression vs baseline")
    cmd_gate.add_argument("--scale", choices=sorted(SCALES), default="smoke")

    sub.add_parser("show", help="print the trajectory table")

    args = parser.parse_args(argv)
    if args.command == "measure":
        data = load_trajectory(args.file)
        metrics = measure(args.scale)
        append_snapshot(data, args.label, args.scale, metrics)
        save_trajectory(data, args.file)
        print(f"{args.label} ({args.scale}):")
        for name in METRICS:
            print(f"  {name:<28} {metrics[name]:g}")
        print(f"appended to {args.file}")
        return 0
    if args.command == "gate":
        text, code = run_gate(args.file, args.scale)
        print(text)
        return code
    print(show(args.file))
    return 0


if __name__ == "__main__":
    sys.exit(main())
