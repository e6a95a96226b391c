"""(Re)capture the codec's golden frames: bytes and truncation errors.

Usage::

    PYTHONPATH=src python tools/capture_codec_golden.py [out.json]

Writes ``tests/data/codec_golden.json`` (default): for every value of the
fixed :func:`corpus`, the encoded frame as hex and what decoding each
*strict prefix* of it raises — the :class:`~repro.net.codec.CodecError`'s
``offset``, message, ``record_context`` and ``field``. The tier-1 test
``tests/unit/test_codec_golden.py`` rebuilds the corpus from this module
and holds the codec to the file, so an encoder or decoder rewrite that
moves one byte, one offset or one error message fails by frame name.

Re-run only after an *intentional* wire-format change, in the commit that
makes it (the same rule as ``tools/capture_wire_baseline.py``). The
committed file was captured from the commit *before* the codec's generic
path was reshaped around the measured traffic, which is what makes it
evidence that the rewrite is byte- and error-identical.

Truncation rows are run-length encoded: ``[count, offset, error]`` covers
*count* consecutive prefix lengths; ``offset`` ``null`` means "the prefix
length itself" (the bytes simply ran out there) and ``error`` indexes the
file's ``errors`` table of ``[what, record_context, field]``. The full
message is ``"<what> at byte <offset>"`` plus, inside a record,
``" (while decoding field '<field>' of <record_context>)"``.
"""

from __future__ import annotations

import json
import os
import sys

from repro.gcs.messages import (
    DataBatchMsg,
    DataMsg,
    Heartbeat,
    MessageId,
    OrderMsg,
    StableMsg,
)
from repro.joshua.wire import Command, JStatReq, JStatResp
from repro.net.address import Address
from repro.net.codec import WIRE, CodecError
from repro.net.frames import AckFrame, DataFrame, RawFrame
from repro.pbs.job import Job, JobSpec, JobState
from repro.pbs.wire import SchedPollResp, StatResp
from repro.rpc.wire import Reply

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "data", "codec_golden.json",
)


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


def truncation_rows(frame: bytes, errors: list[list]) -> list[list]:
    """What ``WIRE.decode`` raises for every strict prefix of *frame*,
    run-length encoded against the shared *errors* table (see the module
    docstring)."""
    rows: list[list] = []
    for cut in range(len(frame)):
        try:
            WIRE.decode(frame[:cut])
        except CodecError as exc:
            message = exc.args[0]
            head = f" at byte {exc.offset}"
            what, _, tail = message.partition(head)
            expected_tail = (
                f" (while decoding field {exc.field!r} of {exc.record_context})"
                if exc.record_context is not None else ""
            )
            if tail != expected_tail:
                raise SystemExit(f"unexpected message shape: {message!r}")
            error = [what, exc.record_context, exc.field]
            if error not in errors:
                errors.append(error)
            offset = None if exc.offset == cut else exc.offset
            row = [1, offset, errors.index(error)]
        else:
            raise SystemExit(f"prefix of {cut} bytes decoded without error")
        if rows and rows[-1][1:] == row[1:]:
            rows[-1][0] += 1
        else:
            rows.append(row)
    return rows


def capture() -> dict:
    frames, errors = [], []
    for name, value in corpus():
        frame = WIRE.encode(value)
        if WIRE.decode(frame) != value:
            raise SystemExit(f"{name}: does not round-trip")
        frames.append({
            "name": name,
            "hex": frame.hex(),
            "truncations": truncation_rows(frame, errors),
        })
    return {"errors": errors, "frames": frames}


def main() -> int:
    out_path = sys.argv[1] if len(sys.argv) > 1 else DEFAULT_OUT
    document = capture()
    os.makedirs(os.path.dirname(out_path), exist_ok=True)

    def lines(entries) -> str:
        # One line per table row and per frame: diffs name what moved.
        return ",\n".join(
            " " + json.dumps(entry, separators=(",", ":")) for entry in entries)

    with open(out_path, "w") as fh:
        fh.write('{"errors":[\n' + lines(document["errors"])
                 + '\n],"frames":[\n' + lines(document["frames"]) + "\n]}\n")
    total = sum(len(f["hex"]) // 2 for f in document["frames"])
    runs = sum(len(f["truncations"]) for f in document["frames"])
    print(f"{len(document['frames'])} frames, {total} bytes, "
          f"{runs} truncation runs -> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
