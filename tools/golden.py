"""Every deterministic artefact the repository commits, held to this tree.

Usage::

    python tools/golden.py check [NAME ...]
    python tools/golden.py update [NAME ...]

:data:`GOLDEN` maps each committed file to the function that produces its
exact text from the working tree. Everything in those files is simulated
time, a count, a byte or a SHA-256, so each regenerates byte for byte
until a change moves what the simulation does. ``check`` regenerates the
named entries (default: all), prints a diff for each that differs and
exits non-zero naming them; ``update`` rewrites them. A NAME is the file's
stem (``BENCH_fig11``, ``wire_baseline``, ``WIRE_SCHEMA``). Update an entry only for an
intended change, in the commit that makes it, so the diff shows the old and
the new bytes beside the code that moved them.

``tests/unit/test_golden.py`` checks every entry outside :data:`SLOW` in
tier-1; CI's golden step checks them all (about a minute on two cores).
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from functools import cache
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import cli  # noqa: E402
from repro.analysis.wiretrace import SCENARIOS, run_scenario  # noqa: E402
from repro.bench.experiments.diurnal import endurance, trace_replay  # noqa: E402
from repro.bench.experiments.head_scaling import head_scaling  # noqa: E402
from repro.bench.experiments.read_scaling import read_scaling  # noqa: E402
from repro.bench.experiments.sharding import sequencer_kill, shard_scaling  # noqa: E402
from repro.bench.experiments.throughput import burst_batching_ablation  # noqa: E402
from repro.faults import runner  # noqa: E402
from repro.gcs.messages import (  # noqa: E402
    DataBatchMsg, DataMsg, Heartbeat, MessageId, OrderMsg, StableMsg)
from repro.joshua.wire import Command, JStatReq, JStatResp  # noqa: E402
from repro.net.address import Address  # noqa: E402
from repro.net.codec import WIRE, CodecError  # noqa: E402
from repro.net.frames import AckFrame, DataFrame, RawFrame  # noqa: E402
from repro.obs.export import collector_records, dumps_record  # noqa: E402
from repro.obs.recorder import write_bundle  # noqa: E402
from repro.obs.timeseries import top_table  # noqa: E402
from repro.pbs.job import Job, JobSpec, JobState  # noqa: E402
from repro.pbs.wire import SchedPollResp, StatResp  # noqa: E402
from repro.rpc.wire import Reply  # noqa: E402


def _json(payload, indent: int = 2) -> str:
    return json.dumps(payload, indent=indent, sort_keys=True) + "\n"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- the codec's golden frames -------------------------------------------------
#
# Per corpus value: the frame as hex and what decoding each strict prefix
# raises, run-length encoded as ``[count, offset, error]`` rows (``offset``
# ``null``: the prefix length itself; ``error`` indexes the ``errors`` table
# of ``[what, record_context, field]``; the message is ``"<what> at byte
# <offset>"`` plus, inside a record, ``" (while decoding field '<field>' of
# <record_context>)"``).


def _jobs() -> list[Job]:
    queued = Job("7.torque", JobSpec(name="d0007-1a2b", walltime=1e5),
                 submit_time=2.25)
    running = Job(
        "8.torque", JobSpec(name="wide", owner="alice", nodes=2, walltime=90.0),
        state=JobState.RUNNING, submit_time=2.5, start_time=3.125,
        exec_nodes=("compute0", "compute1"), comment="started (run)",
        run_count=1,
    )
    killed = Job(
        "9.torque", JobSpec(name="kïlled-✓", queue="shard1", exit_status=3),
        state=JobState.COMPLETE, submit_time=2.75, start_time=3.5,
        end_time=4.0, exit_status=271, comment="killed", run_count=2,
    )
    return [queued, running, killed]


def corpus() -> list[tuple[str, object]]:
    """``(name, value)`` pairs, fixed order. Shaped like the measured
    traffic first (the Maui poll reply is 69-93 % of encoded bytes), then
    the GCS/transport records, then every scalar/container edge."""
    jobs = _jobs()
    rows = tuple(job.stat_row() for job in jobs)
    head0 = Address("head0", 7400)
    mids = [MessageId(head0, n) for n in range(3)]
    submit = Command("c0ffee-01", "jsub", jobs[0].spec)
    delete = Command("c0ffee-02", "jdel", "7.torque")
    return [
        ("sched_poll_resp_3rows", Reply(41, SchedPollResp(
            rows, (("compute0", True), ("compute1", False))))),
        ("stat_resp", Reply(42, StatResp(rows[1:2]))),
        ("jstat_resp", Reply(43, JStatResp(rows[:2], ((0, 17), (1, 4)), "head1"))),
        ("data_msg_command_jobspec", DataMsg(mids[0], 3, "safe", submit)),
        ("data_batch_msg", DataBatchMsg(
            3, ((mids[1], "safe", submit), (mids[2], "agreed", delete)))),
        ("order_msg", DataFrame(1, 9, OrderMsg(
            3, tuple((n, mid) for n, mid in enumerate(mids))))),
        ("stable_msg", RawFrame(StableMsg(3, 200))),
        ("ack_frame", AckFrame(1, 10)),
        ("heartbeat", RawFrame(Heartbeat(3, 200))),
        ("record_elided_tail", JStatReq("c0ffee-03")),
        ("record_partly_elided_tail", JStatReq("c0ffee-04", None, "ryw")),
        ("record_full_tail", JStatReq("c0ffee-05", "7.torque", "ryw", ((0, 5),))),
        ("record_with_enum_fields", tuple(jobs[1:])),
        ("ints", (0, -1, 1, 63, 64, -64, -65, 127, 128, 2**70, -(2**70))),
        ("floats", (0.0, -1.5, 1e300, float("inf"))),
        ("bools_and_none", (True, False, None)),
        ("str_empty", ""),
        ("str_128_bytes", "x" * 128),
        ("str_300_bytes", "ab" * 150),
        ("str_non_ascii", "jöb-✓-日本語-\U0001f600"),
        ("bytes_values", (b"", b"\x00\xff" * 70)),
        ("empty_containers", ((), [], {})),
        ("nested_containers", {
            "a": [(), [1, {"b": None}], ("x", 2.5)],
            7: {"deep": [[[]]], "flag": True},
            "z": (b"\x01", ["k", {"": ""}]),
        }),
    ]


def _truncation_rows(frame: bytes, errors: list[list]) -> list[list]:
    """What ``WIRE.decode`` raises for every strict prefix of *frame*,
    run-length encoded against the shared *errors* table."""
    rows: list[list] = []
    for cut in range(len(frame)):
        try:
            WIRE.decode(frame[:cut])
        except CodecError as exc:
            what, _, tail = exc.args[0].partition(f" at byte {exc.offset}")
            expected_tail = (
                f" (while decoding field {exc.field!r} of {exc.record_context})"
                if exc.record_context is not None else ""
            )
            if tail != expected_tail:
                raise RuntimeError(f"unexpected message shape: {exc.args[0]!r}")
            error = [what, exc.record_context, exc.field]
            if error not in errors:
                errors.append(error)
            row = [1, None if exc.offset == cut else exc.offset, errors.index(error)]
        else:
            raise RuntimeError(f"prefix of {cut} bytes decoded without error")
        if rows and rows[-1][1:] == row[1:]:
            rows[-1][0] += 1
        else:
            rows.append(row)
    return rows


def _codec_golden() -> str:
    frames, errors = [], []
    for name, value in corpus():
        frame = WIRE.encode(value)
        frames.append({"name": name, "hex": frame.hex(),
                       "truncations": _truncation_rows(frame, errors)})

    def lines(entries) -> str:
        # One line per table row and per frame: diffs name what moved.
        return ",\n".join(
            " " + json.dumps(entry, separators=(",", ":")) for entry in entries)

    return ('{"errors":[\n' + lines(errors) + '\n],"frames":[\n'
            + lines(frames) + "\n]}\n")


# -- observer and CLI output digests -------------------------------------------

#: Fixed-seed chaos runs whose observers are read at the end: one ordering
#: group with a read mix (the read path, timed-out conversations) and two
#: groups (``shard=``-labelled series).
OBS_RUNS = {
    "one-group": dict(seed=1, jobs=12, duration=25.0, read_mix=0.5),
    "two-groups": dict(seed=7, jobs=8, duration=20.0, shards=2),
}
#: CLI runs whose stdout (and ``--jsonl`` file ``F``) is pinned. Each runs
#: in an empty directory, so ``wrote N records to F`` is machine-independent.
CLI_RUNS = {
    "trace-rpc-jsonl": "trace --seed 7 --jobs 2 --rpc --jsonl F".split(),
    "trace-shard": "trace --seed 7 --jobs 2 --shards 2 --shard 1".split(),
    "chaos-read-mix-jsonl": "chaos run --seed 0 --read-mix 0.5 --jsonl F".split(),
}
SOAK = "chaos soak --seed 0 --runs 20".split()


def _obs_digests(run: str) -> dict:
    """SHA-256 of what the observers of one chaos run emit: the JSONL of
    ``collector_records`` plus ``TimeSeriesSampler.records()``, a
    ``write_bundle`` of every bundle plus one forced capture at the end,
    and the ``top_table`` of the samples."""
    collectors = []
    attach = runner.attach_collector

    def spy(network, **kwargs):
        collectors.append(attach(network, **kwargs))
        return collectors[-1]

    with mock.patch.object(runner, "attach_collector", spy):
        report = runner.run_chaos(**OBS_RUNS[run])
    if not report.ok:
        raise RuntimeError(f"{run}: {report.summary()}")
    [collector] = collectors
    records = collector_records(collector) + collector.sampler.records()
    bundles = [*report.postmortems,
               collector.recorder.capture("golden", "forced at the end of the run")]
    with tempfile.TemporaryDirectory() as directory:
        written = []
        for index, bundle in enumerate(bundles):
            path = Path(directory) / f"bundle-{index}.jsonl"
            write_bundle(bundle, path)
            written.append(path.read_text())
    return {
        "records": _sha("".join(dumps_record(r) + "\n" for r in records).encode()),
        "bundles": _sha("".join(written).encode()),
        "top": _sha("\n".join(top_table(collector.sampler.records())).encode()),
    }


def _cli_digests(argv: list[str]) -> dict:
    """SHA-256 of ``repro <argv>``'s stdout, and of its ``--jsonl`` file."""
    out, here = io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            with contextlib.redirect_stdout(out):
                status = cli.main(argv)
            digests = {"stdout": _sha(out.getvalue().encode())}
            if "--jsonl" in argv:
                digests["jsonl"] = _sha(Path("F").read_bytes())
        finally:
            os.chdir(here)
    if status != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {status}")
    return digests


def _golden_digests() -> str:
    return _json({
        "obs": {run: _obs_digests(run) for run in OBS_RUNS},
        "cli": {run: _cli_digests(argv) for run, argv in CLI_RUNS.items()},
    })


# -- the benchmark's workloads at quick scale (perf/ is only read) --------------


def _perf_quick() -> str:
    """Each workload's ``perf/run.py --child`` wire digest, kernel event
    count and sim-time metrics at quick scale and the default seed, observed
    as ``perf/run.py --quick`` observes it."""
    with open(ROOT / "BENCHMARK.json") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    pinned = {}
    for workload in workloads:
        done = subprocess.run(
            [sys.executable, str(ROOT / "perf" / "run.py"), "--child",
             "--workload", workload, "--seed", "11", "--scale", "quick",
             "--observers", str(int(workload == "failover"))],
            env=dict(os.environ, PYTHONHASHSEED="0"), cwd=ROOT,
            capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        if result["errors"]:
            raise RuntimeError(f"{workload}: {result['errors']}")
        pinned[workload] = {key: result[key] for key in ("digest", "events", "sim")}
    return _json(pinned)


# -- the wire schema -------------------------------------------------------------


def _wire_schema() -> str:
    """The schema of every record the package registers (``import repro``
    imports each wire module), after the registration contract's audit.
    A group runs one schema (PROTOCOLS.md §11), so a change here is a
    coordinated upgrade of every head."""
    WIRE.self_check()
    return _json(WIRE.schema(), indent=1)


# -- the registry ----------------------------------------------------------------

#: committed path -> the function producing its exact text.
GOLDEN = {
    "tests/data/wire_baseline.json": lambda: _json(
        {name: run_scenario(name) for name in SCENARIOS}, indent=1),
    "tests/data/codec_golden.json": _codec_golden,
    "tests/data/golden_digests.json": _golden_digests,
    "BENCH_fig11.json": lambda: _json(burst_batching_ablation()),
    "BENCH_shard_scaling.json": lambda: _json({
        "scaling": shard_scaling(),
        "sequencer_kill": sequencer_kill(),
    }),
    "BENCH_read_scaling.json": lambda: _json(read_scaling(write_rate=5.0)),
    "BENCH_head_scaling.json": lambda: _json(head_scaling(
        figure10_heads=(1, 2, 3, 4, 6, 8, 12, 16), stress_heads=(2, 4, 8, 16),
    )),
    "tests/data/chaos_soak.json": lambda: _json(
        {"argv": SOAK, **_cli_digests(SOAK)}),
    "tests/data/endurance.json": lambda: _json(endurance()),
    "tests/data/trace_replay.json": lambda: _json(trace_replay()),
    "tests/data/perf_quick.json": _perf_quick,
    "src/repro/WIRE_SCHEMA.lock": _wire_schema,
}
#: NAME -> committed path.
NAMES = {Path(path).stem: path for path in GOLDEN}
#: Entries that take 5-20 s each: CI's golden step checks them, tier-1 not.
SLOW = ("chaos_soak", "endurance", "trace_replay", "perf_quick")


@cache
def produce(name: str) -> str:
    """The text entry *name* has at this tree (once per process)."""
    return GOLDEN[NAMES[name]]()


def committed(name: str) -> dict | list:
    """The payload of entry *name* as committed in this checkout."""
    return json.loads((ROOT / NAMES[name]).read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=("check", "update"))
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"default: all of {', '.join(NAMES)}")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(NAMES))
    if unknown:
        parser.error(f"unknown NAME {', '.join(unknown)}")
    drifted = []
    for name in args.names or NAMES:
        path = ROOT / NAMES[name]
        text = produce(name)
        if args.command == "update":
            path.write_text(text)
            print(f"{name}: wrote {NAMES[name]}")
            continue
        old = path.read_text() if path.is_file() else ""
        if old == text:
            print(f"{name}: ok")
            continue
        drifted.append(name)
        print(f"{name}: {NAMES[name]} differs from what this tree produces")
        diff = list(difflib.unified_diff(old.splitlines(True), text.splitlines(True),
                                         "committed", "produced", n=1))
        sys.stdout.writelines(diff[:40] + ["...\n"] * (len(diff) > 40))
    if drifted:
        print(f"drifted: {' '.join(drifted)}. If the change is intended, run "
              f"python tools/golden.py update {' '.join(drifted)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
