"""Command-line interface: regenerate any experiment without writing code.

::

    python -m repro figure10 [--trials N] [--seed S]
    python -m repro figure11 [--jobs 10 50 100]
    python -m repro figure12 [--mttf H] [--mttr H] [--empirical]
    python -m repro compare  [--seed S]
    python -m repro correlated [--cc-mttf H] [--cc-mttr H]
    python -m repro ablations {ordering,batching,detection,slot,all}
    python -m repro chaos run  [--seed S] [--schedule FILE] [...]
    python -m repro chaos soak [--seed S] [--runs N] [...]
    python -m repro trace [--seed S] [--jobs N] [--jsonl FILE]
    python -m repro postmortem BUNDLE [--limit N]
    python -m repro lint  [--rule RN ...] [--jsonl] [--ignores]
    python -m repro schema extract
    python -m repro schema {update,diff} [--root DIR] [--jsonl]

Every command prints the same tables the benchmark suite produces; all
runs are deterministic given ``--seed``. The chaos commands exit non-zero
on invariant violations and print the offending seed + schedule JSON so
the exact scenario can be replayed. ``trace`` runs a fully observed
scenario and prints per-job causal timelines plus the Figure-10-style
per-phase latency breakdown; ``--jsonl`` exports the merged span/log/
metric/time-series stream for offline analysis. ``postmortem`` renders a
flight-recorder bundle (the JSONL files a failed ``chaos run`` writes) as
a human-readable merged timeline. ``schema`` manages the committed wire
schema (``WIRE_SCHEMA.lock``): ``extract`` prints the schema read from
the codec's registry, ``update`` regenerates the lockfile (the reviewed
acceptance step for any wire change rule R7 flags), and ``diff`` lists
every delta (exit 1 on any: each is a coordinated upgrade).
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.reporting import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="JOSHUA (CLUSTER 2006) reproduction — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig10 = sub.add_parser("figure10", help="job submission latency table")
    fig10.add_argument("--trials", type=int, default=10)
    fig10.add_argument("--seed", type=int, default=1)

    fig11 = sub.add_parser("figure11", help="job submission throughput table")
    fig11.add_argument("--jobs", type=int, nargs="+", default=[10, 50, 100])
    fig11.add_argument("--seed", type=int, default=1)

    fig12 = sub.add_parser("figure12", help="availability/downtime table")
    fig12.add_argument("--mttf", type=float, default=5000.0, help="node MTTF (hours)")
    fig12.add_argument("--mttr", type=float, default=72.0, help="node MTTR (hours)")
    fig12.add_argument("--empirical", action="store_true",
                       help="add the Monte-Carlo cross-check (slower)")
    fig12.add_argument("--years", type=float, default=1000.0,
                       help="Monte-Carlo horizon in simulated years")

    compare = sub.add_parser("compare", help="HA model comparison")
    compare.add_argument("--seed", type=int, default=101)

    correlated = sub.add_parser("correlated", help="correlated-failure analysis")
    correlated.add_argument("--mttf", type=float, default=5000.0)
    correlated.add_argument("--mttr", type=float, default=72.0)
    correlated.add_argument("--cc-mttf", type=float, default=50_000.0,
                            help="common-cause MTTF (hours)")
    correlated.add_argument("--cc-mttr", type=float, default=24.0,
                            help="common-cause MTTR (hours)")
    correlated.add_argument("--max-nodes", type=int, default=6)

    ablations = sub.add_parser("ablations", help="design-choice sweeps")
    ablations.add_argument(
        "which",
        choices=["ordering", "batching", "detection", "slot", "all"],
        nargs="?",
        default="all",
    )

    chaos = sub.add_parser("chaos", help="fault injection with live invariants")
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)

    def _common_chaos_args(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--heads", type=int, default=3)
        p.add_argument("--computes", type=int, default=2)
        p.add_argument("--jobs", type=int, default=6)
        p.add_argument("--duration", type=float, default=30.0)
        p.add_argument("--intensity", type=int, default=3,
                       help="faults per randomly generated scenario")
        p.add_argument("--read-mix", type=float, default=0.0, metavar="P",
                       help="fraction of client operations that are "
                            "read-your-writes jstat queries through the "
                            "gateway (0 = historical write-only workload)")

    chaos_run = chaos_sub.add_parser("run", help="one scenario (random or from file)")
    _common_chaos_args(chaos_run)
    chaos_run.add_argument("--ordering", choices=["sequencer", "token"],
                           default="sequencer")
    chaos_run.add_argument("--shards", type=int, default=1,
                           help="independent ordering groups over the same "
                                "heads (PROTOCOLS.md §10); workload is "
                                "spread across every shard's queues")
    chaos_run.add_argument("--shard", type=int, default=None,
                           help="restrict the per-shard tables to one shard")
    chaos_run.add_argument("--schedule", metavar="FILE",
                           help="JSON fault schedule (default: random from seed)")
    chaos_run.add_argument("--jsonl", metavar="FILE",
                           help="write structured log records + metrics + "
                                "time-series samples as JSONL")
    chaos_run.add_argument("--postmortem-dir", metavar="DIR", default=".",
                           help="where a failed run writes its flight-"
                                "recorder bundles (default: cwd)")

    chaos_soak = chaos_sub.add_parser("soak", help="many seeded scenarios")
    _common_chaos_args(chaos_soak)
    chaos_soak.add_argument("--runs", type=int, default=20)

    trace = sub.add_parser(
        "trace", help="observed run: per-job timelines + phase breakdown"
    )
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--heads", type=int, default=3)
    trace.add_argument("--computes", type=int, default=2)
    trace.add_argument("--jobs", type=int, default=3)
    trace.add_argument("--ordering", choices=["sequencer", "token"],
                       default="sequencer")
    trace.add_argument("--shards", type=int, default=1,
                       help="independent ordering groups over the same heads; "
                            "submissions round-robin across shard queues")
    trace.add_argument("--shard", type=int, default=None,
                       help="restrict the per-shard tables to one shard")
    trace.add_argument("--jsonl", metavar="FILE",
                       help="write the merged span/log/metric/time-series "
                            "stream as JSONL")
    trace.add_argument("--rpc", action="store_true",
                       help="also print the per-request-type RPC table")

    postmortem = sub.add_parser(
        "postmortem",
        help="render a flight-recorder bundle as a merged timeline",
    )
    postmortem.add_argument("bundle", metavar="BUNDLE",
                            help="bundle file written by a failed chaos run "
                                 "(JSONL, header + merged records)")
    postmortem.add_argument("--limit", type=int, default=None, metavar="N",
                            help="show only the last N records (closest to "
                                 "the trigger; default: all)")

    lint = sub.add_parser(
        "lint", help="determinism & protocol static analysis (rules R1–R5, R7)"
    )
    lint.add_argument(
        "--rule", action="append",
        choices=["R1", "R2", "R3", "R4", "R5", "R7"],
        metavar="RN", help="run only these rules (repeatable; default: all)",
    )
    lint.add_argument("--jsonl", action="store_true",
                      help="one JSON object per finding instead of text")
    lint.add_argument("--root", metavar="DIR",
                      help="package root to lint (default: the installed repro package)")
    lint.add_argument("--ignores", action="store_true",
                      help="list every active '# repro-lint: ignore[RN]' "
                           "directive (file:line, rules, reason) instead of "
                           "linting")

    schema = sub.add_parser(
        "schema",
        help="wire-schema lockfile: extract / update / diff (rule R7)",
    )
    schema_sub = schema.add_subparsers(dest="schema_command", required=True)
    schema_sub.add_parser(
        "extract", help="print the schema read from the codec's registry")
    schema_update = schema_sub.add_parser(
        "update", help="regenerate WIRE_SCHEMA.lock from the working tree "
                       "(the reviewed acceptance step for R7 findings)")
    schema_diff = schema_sub.add_parser(
        "diff", help="every delta vs the lockfile (exit 1 on any)")
    schema_diff.add_argument("--jsonl", action="store_true",
                             help="one JSON object per delta instead of text")
    for sub_cmd in (schema_update, schema_diff):
        sub_cmd.add_argument(
            "--root", metavar="DIR",
            help="package root (default: the installed repro package)")
    return parser


def _cmd_figure10(args) -> str:
    from repro.bench.experiments.latency import figure10
    from repro.bench.reporting import bar_chart
    rows = figure10(trials=args.trials, seed=args.seed)
    for row in rows:
        row["config"] = f"{row['system']} x{row['heads']}"
    table = format_table(
        rows,
        ["system", "heads", "measured_ms", "paper_ms",
         "measured_overhead_pct", "paper_overhead_pct"],
        title="Figure 10 — job submission latency (ms)",
    )
    chart = bar_chart(
        rows, label="config", series=["measured_ms", "paper_ms"],
        title="shape (shared scale):",
    )
    return f"{table}\n\n{chart}"


def _cmd_figure11(args) -> str:
    from repro.bench.experiments.throughput import figure11
    rows = figure11(job_counts=tuple(args.jobs), seed=args.seed)
    return format_table(rows, title="Figure 11 — submission throughput (s)")


def _cmd_figure12(args) -> str:
    from repro.bench.experiments.availability import figure12, figure12_empirical
    out = [format_table(
        figure12(mttf_hours=args.mttf, mttr_hours=args.mttr),
        title=f"Figure 12 — MTTF={args.mttf} h, MTTR={args.mttr} h",
    )]
    if args.empirical:
        out.append(format_table(
            figure12_empirical(mttf_hours=args.mttf, mttr_hours=args.mttr,
                               horizon_years=args.years),
            title=f"Monte-Carlo cross-check ({args.years:.0f} simulated years)",
        ))
    return "\n\n".join(out)


def _cmd_compare(args) -> str:
    from repro.bench.experiments.models import compare_models
    rows = compare_models(seed=args.seed)
    return format_table(rows, title="HA model comparison (identical workload + fault)")


def _cmd_correlated(args) -> str:
    from repro.ha.correlated import correlated_table, diminishing_returns
    rows = correlated_table(
        args.max_nodes,
        mttf_hours=args.mttf, mttr_hours=args.mttr,
        cc_mttf_hours=args.cc_mttf, cc_mttr_hours=args.cc_mttr,
    )
    table = format_table(
        rows, title="Correlated failures — independent vs common-cause-capped"
    )
    point = diminishing_returns(
        mttf_hours=args.mttf, mttr_hours=args.mttr,
        cc_mttf_hours=args.cc_mttf, cc_mttr_hours=args.cc_mttr,
    )
    return (f"{table}\n\nDiminishing returns after {point} head node(s): "
            "past that, spend on a second failure domain, not more heads.")


def _cmd_ablations(args) -> str:
    from repro.bench.experiments import ablations as ab
    sections = []
    if args.which in ("ordering", "all"):
        sections.append(format_table(
            ab.ordering_engine_latency(trials=10),
            title="Ablation — sequencer vs token ordering (ms)",
        ))
    if args.which in ("batching", "all"):
        sections.append(format_table(
            ab.sequencer_batching(), title="Ablation — ORDER batching delay"
        ))
    if args.which in ("detection", "all"):
        sections.append(format_table(
            ab.failure_detection_sweep(),
            title="Ablation — suspect timeout vs view change",
        ))
    if args.which in ("slot", "all"):
        sections.append(format_table(
            ab.stable_slot_sweep(), title="Ablation — stability-ack slot vs jsub"
        ))
    return "\n\n".join(sections)


def _cmd_chaos(args):
    import json

    from repro.faults import FaultSchedule, run_chaos, soak
    from repro.util.errors import ClusterError

    try:
        if args.chaos_command == "run":
            schedule = None
            if args.schedule:
                try:
                    with open(args.schedule) as f:
                        schedule = FaultSchedule.from_json(f.read())
                except (OSError, json.JSONDecodeError) as exc:
                    return f"error: cannot load schedule {args.schedule}: {exc}", 2
            report = run_chaos(
                schedule,
                seed=args.seed, heads=args.heads, computes=args.computes,
                jobs=args.jobs, duration=args.duration, ordering=args.ordering,
                intensity=args.intensity, shards=args.shards,
                read_mix=args.read_mix,
            )
            reports = [report]
            if args.jsonl:
                from repro.obs.export import metric_records, write_jsonl
                records = list(report.log_records)
                records.extend(metric_records(report.registry))
                records.extend(report.timeseries)
                write_jsonl(args.jsonl, records)
        else:
            reports = soak(
                args.seed, args.runs,
                heads=args.heads, computes=args.computes, jobs=args.jobs,
                duration=args.duration, intensity=args.intensity,
                read_mix=args.read_mix,
            )
    except ClusterError as exc:
        # Bad schedule contents or bad knob values (e.g. --intensity 0):
        # a usage error, not a crash.
        return f"error: {exc}", 2

    lines = [r.summary() for r in reports]
    failed = [r for r in reports if not r.ok]
    if args.chaos_command == "run":
        report = reports[0]
        lines.extend(_observed_lines(
            report.registry, report.wire_bytes_by_type,
            report.offered_bytes_by_type, report.timeseries,
            rpc=True, shards=report.shards, shard=args.shard,
        ))
    for r in failed:
        lines.append("")
        lines.append(f"FAILED seed={r.seed} ordering={r.ordering} — replay with:")
        lines.append(f"  repro chaos run --seed {r.seed} --ordering {r.ordering}")
        lines.extend(f"  {v}" for v in r.violations)
        if r.rpc_timeouts:
            # Which destinations went dark, and on which request types:
            # usually the fastest pointer from a violation to its fault.
            lines.append(f"  rpc timeouts ({len(r.rpc_timeouts)}, most recent last):")
            lines.extend(f"    {t.describe()}" for t in r.rpc_timeouts[-10:])
        if r.postmortems:
            bundle_dir = getattr(args, "postmortem_dir", ".")
            lines.append("  flight-recorder bundles (render with "
                         "`repro postmortem FILE`):")
            lines.extend(
                f"    {path}"
                for path in _write_postmortems(r, bundle_dir)
            )
        lines.append("  schedule:")
        lines.extend("  " + line for line in r.schedule.to_json().splitlines())
    if not failed:
        lines.append(f"{len(reports)} run(s), zero invariant violations")
    return "\n".join(lines), (1 if failed else 0)


def _write_postmortems(report, directory) -> list[str]:
    """Write a failed chaos run's flight-recorder bundles as JSONL files
    (``postmortem-<seed>-<n>.jsonl``); returns the paths written."""
    import os

    from repro.obs.recorder import write_bundle

    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, bundle in enumerate(report.postmortems):
        path = os.path.join(directory, f"postmortem-{report.seed}-{i}.jsonl")
        write_bundle(bundle, path)
        paths.append(path)
    return paths


def _observed_lines(registry, wire: dict, offered: dict, series: list, *,
                    rpc: bool, shards: int, shard: int | None) -> list[str]:
    """The observer sections ``repro trace`` and ``repro chaos run`` share:
    the rpc conversations (with *rpc*), the per-shard ordering pipeline (a
    sharded run, or a ``--shard`` filter), the wire byte ledgers and, when
    there are any *series* records, the busiest time series."""
    from repro.obs.report import (
        rpc_latency_lines,
        shard_breakdown_lines,
        wire_bytes_lines,
    )
    from repro.obs.timeseries import top_table

    lines = []
    if rpc:
        lines += ["", "rpc conversations (per request type):"]
        lines += rpc_latency_lines(registry)
    if shards > 1 or shard is not None:
        lines += ["", "per-shard ordering pipeline:"]
        lines += shard_breakdown_lines(registry, shard)
    lines += ["", "wire bytes by message type:"]
    lines += wire_bytes_lines(wire, offered)
    if series:
        lines += ["", "busiest time series (per 1s window):"]
        lines += top_table(series, shard=shard)
    return lines


def _cmd_trace(args):
    from repro.joshua.trace import run_traced_scenario
    from repro.obs.export import collector_records, write_jsonl
    from repro.obs.report import job_timeline_lines, phase_breakdown_lines

    run = run_traced_scenario(
        seed=args.seed, heads=args.heads, computes=args.computes,
        jobs=args.jobs, ordering=args.ordering, shards=args.shards,
    )
    lines = [
        f"traced run: seed={run.seed} heads={run.heads} "
        f"computes={run.computes} ordering={run.ordering} "
        f"shards={run.shards} jobs={len(run.submitted)}",
    ]
    for trace in run.collector.job_traces():
        lines.append("")
        lines.extend(job_timeline_lines(trace))
    lines.append("")
    lines.append("per-phase latency breakdown (Figure 10 decomposition):")
    lines.extend(phase_breakdown_lines(run.registry))
    series = run.collector.sampler.records()
    lines.extend(_observed_lines(
        run.registry, run.network.wire_bytes_by_type,
        run.network.offered_bytes_by_type, series,
        rpc=args.rpc, shards=run.shards, shard=args.shard,
    ))
    if args.jsonl:
        records = collector_records(run.collector, run.cluster.kernel.log)
        records.extend(series)
        count = write_jsonl(args.jsonl, records)
        lines.append("")
        lines.append(f"wrote {count} records to {args.jsonl}")
    return "\n".join(lines)


def _cmd_postmortem(args):
    from repro.obs.recorder import read_bundle, timeline_lines

    try:
        bundle = read_bundle(args.bundle)
    except (OSError, ValueError) as exc:
        return f"error: {exc}", 2
    return "\n".join(timeline_lines(bundle, limit=args.limit))


def _cmd_lint(args):
    from repro.analysis import list_ignores, run_lint

    if args.ignores:
        rows = [
            (
                f"{path}:{directive.line}",
                ", ".join(directive.rules),
                directive.reason,
            )
            for path, directive in list_ignores(root=args.root)
        ]
        lines = [
            f"{location:<32} [{rules}] {reason}"
            for location, rules, reason in rows
        ]
        lines.append(f"{len(rows)} active ignore directive(s)")
        return "\n".join(lines), 0
    findings = run_lint(root=args.root, rules=args.rule)
    if args.jsonl:
        lines = [f.to_json() for f in findings]
    else:
        lines = [f.render() for f in findings]
        which = ", ".join(args.rule) if args.rule else "R1–R5, R7"
        lines.append(
            f"{len(findings)} finding(s) ({which})"
            + ("" if findings else " — determinism/protocol contract holds")
        )
    return "\n".join(lines), (1 if findings else 0)


def _cmd_schema(args):
    import json

    from repro.analysis import schema as schema_mod
    from repro.util.errors import ReproError

    if args.schema_command == "extract":
        return json.dumps(schema_mod.registry_schema(), indent=1, sort_keys=True), 0
    try:
        current = schema_mod.derive(args.root)
    except ReproError as exc:
        return f"error: {exc}", 1
    lock_path = schema_mod.lockfile_path(args.root)
    counts = (
        f"{len(current['records'])} records, {len(current['enums'])} enums"
    )
    if args.schema_command == "update":
        schema_mod.write_lockfile(current, lock_path)
        return f"wrote {lock_path} ({counts})", 0
    locked = schema_mod.load_lockfile(lock_path)
    if locked is None:
        return (
            f"no lockfile at {lock_path} — run `repro schema update` "
            "and commit it",
            1,
        )
    deltas = schema_mod.diff_schemas(locked, current)
    if not deltas:
        return f"lockfile matches the working tree ({counts})", 0
    text = schema_mod.render_deltas(deltas, jsonl=args.jsonl)
    if not args.jsonl:
        text += (
            f"\n{len(deltas)} delta(s), each a coordinated upgrade — review "
            "and run `repro schema update` to accept"
        )
    return text, 1


_COMMANDS = {
    "figure10": _cmd_figure10,
    "figure11": _cmd_figure11,
    "figure12": _cmd_figure12,
    "compare": _cmd_compare,
    "correlated": _cmd_correlated,
    "ablations": _cmd_ablations,
    "chaos": _cmd_chaos,
    "trace": _cmd_trace,
    "postmortem": _cmd_postmortem,
    "lint": _cmd_lint,
    "schema": _cmd_schema,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    result = _COMMANDS[args.command](args)
    text, code = result if isinstance(result, tuple) else (result, 0)
    print(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
