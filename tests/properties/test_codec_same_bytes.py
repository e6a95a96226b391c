"""Same bytes, less work: pre-encoded fragments and the decode memo.

Two host-time devices in :mod:`repro.net.codec` must be invisible on the
wire and to every receiver:

* a :class:`PlainFragment` (what ``JobQueue.to_wire()`` and the by-id
  ``qstat`` branch send) encodes to exactly the bytes of the row it stands
  for, under the shared registry and under a clone with evolved records;
* a codec whose decode memo is warm answers every frame — intact, cut
  short, or damaged — exactly as a codec that has never decoded anything
  does: same value, or the same :class:`CodecError` (message, ``offset``,
  ``record_context``, ``field``); and what it returns is fresh every time.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from repro.net.codec import (
    _MEMO_CAP,
    _MEMO_KEY,
    WIRE,
    Codec,
    CodecError,
    PlainFragment,
)
from repro.pbs.job import Job, JobSpec, JobState
from repro.pbs.queue import JobQueue
from repro.pbs.wire import SchedPollResp, StatResp
from repro.rpc.wire import Reply

GOLDEN = {f["name"]: bytes.fromhex(f["hex"])
          for f in golden.committed("codec_golden")["frames"]}


# ---------------------------------------------------------------------------
# (a) a fragment encodes to the bytes of the row it stands for
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StatRespV2(StatResp):
    """``StatResp`` as a later wire module might ship it (a compatible
    append), bound in the clone below."""

    truncated: bool = False


@dataclasses.dataclass(frozen=True)
class SchedPollRespV2(SchedPollResp):
    epoch: int = 0


EVOLVED = WIRE.clone(
    overrides={"StatResp": StatRespV2, "SchedPollResp": SchedPollRespV2}
)

_names = st.text(max_size=12)  # any code point: non-ASCII included
_specs = st.builds(
    JobSpec,
    name=_names,
    owner=st.text(max_size=8),
    nodes=st.integers(1, 300),
    walltime=st.floats(min_value=0.001, max_value=1e9, allow_nan=False),
    queue=st.sampled_from(["batch", "shard1", "q-✓"]),
)
_jobs = st.builds(
    Job,
    job_id=st.integers(1, 10**9).map(lambda n: f"{n}.torque"),
    spec=_specs,
    state=st.sampled_from(list(JobState)),
    submit_time=st.floats(min_value=0, max_value=1e6),
    exit_status=st.none() | st.integers(-1, 300),
    exec_nodes=st.lists(
        st.sampled_from(["compute0", "compute1", "nœud-2"]), max_size=3
    ).map(tuple),
    comment=_names,
)


def _queue(jobs) -> JobQueue:
    queue = JobQueue()
    for job in jobs:
        queue.add(job)
    return queue


@settings(max_examples=150, deadline=None)
@given(jobs=st.lists(_jobs, max_size=5, unique_by=lambda job: job.job_id))
def test_replies_built_from_fragments_are_byte_identical(jobs):
    fragments = tuple(_queue(jobs).to_wire())
    rows = tuple(job.stat_row() for job in jobs)
    assert all(type(f) is PlainFragment for f in fragments)
    node_free = (("compute0", True), ("compute1", False))
    for codec, stat, poll in (
        (WIRE, StatResp, SchedPollResp),
        (EVOLVED, StatResp, SchedPollResp),  # old class on an upgraded node
        (EVOLVED, StatRespV2, SchedPollRespV2),
    ):
        assert codec.encode(Reply(7, stat(fragments))).hex() == \
            codec.encode(Reply(7, stat(rows))).hex()
        assert codec.encode(Reply(8, poll(fragments, node_free))).hex() == \
            codec.encode(Reply(8, poll(rows, node_free))).hex()
    # ...and what arrives is the plain rows, never a fragment.
    assert WIRE.decode(WIRE.encode(StatResp(fragments))) == StatResp(rows)


def test_golden_poll_and_stat_frames_reproduced_from_fragments():
    jobs = golden._jobs()
    fragments = tuple(_queue(jobs).to_wire())
    poll = Reply(41, SchedPollResp(
        fragments, (("compute0", True), ("compute1", False))))
    assert WIRE.encode(poll) == GOLDEN["sched_poll_resp_3rows"]
    assert WIRE.encode(Reply(42, StatResp((jobs[1].wire_row,)))) == \
        GOLDEN["stat_resp"]


def test_row_is_encoded_once_per_job_record_and_never_copied_with_it():
    import copy

    job = golden._jobs()[1]
    assert job.wire_row is job.wire_row
    running = dataclasses.replace(job, comment="changed")
    assert running.wire_row != job.wire_row  # a new record, a new row
    assert "wire_row" not in vars(copy.deepcopy(job))  # Disk writes
    assert copy.deepcopy(job) == job and repr(copy.deepcopy(job)) == repr(job)
    assert "wire_row" not in repr(job)
    # The record's own encoding is by field.
    assert WIRE.decode(WIRE.encode(job)) == dataclasses.replace(job)


# ---------------------------------------------------------------------------
# (d) the fragment's own contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", [
    JobSpec(),                      # a registered record
    {"state": JobState.QUEUED},     # a registered enum, nested
    [{"ids": {1, 2}}],              # a set
    (1, frozenset()),
])
def test_fragment_refuses_anything_but_builtins(value):
    with pytest.raises(CodecError):
        PlainFragment(value)


def test_fragment_is_an_immutable_value_with_the_values_repr():
    row = golden._jobs()[2].stat_row()
    one, two = PlainFragment(row), PlainFragment(dict(row))
    assert one == two and hash(one) == hash(two) and one is not two
    assert one != PlainFragment({**row, "comment": "other"})
    assert one != row and one != WIRE.encode(row)
    assert repr(one) == repr(row)
    assert repr((one,)) == repr((row,))  # as wiretrace prints a payload
    with pytest.raises(AttributeError):
        one._wire = b""
    with pytest.raises(AttributeError):
        one.extra = 1


# ---------------------------------------------------------------------------
# (b) warm-vs-cold differential
# ---------------------------------------------------------------------------


def _outcome(codec: Codec, frame: bytes):
    """What a receiver can observe of ``decode(frame)``. Values compare by
    ``repr``: exact types (``True`` is not ``1``), dict order, and NaN
    equal to itself."""
    try:
        return "value", repr(codec.decode(frame))
    except CodecError as exc:
        return "error", str(exc), exc.offset, exc.record_context, exc.field


_COLD = WIRE.clone()


def _cold(frame: bytes):
    """The outcome on a codec with the shared registry and an empty memo —
    what a fresh ``WIRE.clone()`` gives, without re-registering ~70 records
    per probe."""
    _COLD._memo.clear()
    _COLD._memo_lengths.clear()
    return _outcome(_COLD, frame)


def _warmed(order) -> Codec:
    codec = WIRE.clone()
    assert not codec._memo  # a clone starts cold
    for name in order:
        codec.decode(GOLDEN[name])
    return codec


def _damaged(frame: bytes, rng: random.Random) -> bytes:
    """1-3 bytes overwritten, then possibly an inflated length spliced in
    and possibly the tail cut (the shape of the PR 15 fuzz)."""
    out = bytearray(frame)
    for _ in range(rng.randint(1, 3)):
        out[rng.randrange(len(out))] = rng.randrange(256)
    if rng.random() < 0.3:
        at = rng.randrange(len(out))
        out[at:at + 1] = b"\xff\xff\xff\xff\x0f"
    if rng.random() < 0.3:
        del out[rng.randrange(len(out) + 1):]
    return bytes(out)


_ORDERS = {
    "corpus-order": list(GOLDEN),
    "reversed": list(reversed(GOLDEN)),
    "shuffled": random.Random(16).sample(list(GOLDEN), len(GOLDEN)),
}


@pytest.mark.parametrize("order", sorted(_ORDERS))
def test_warm_codec_answers_intact_and_truncated_frames_like_a_cold_one(order):
    warm = _warmed(_ORDERS[order])
    assert warm._memo  # the poll/stat rows are in it
    for name, frame in GOLDEN.items():
        # Every strict prefix — among them each memoised row cut short at
        # the frame's tail — and the intact frame (``stat_resp`` ends
        # exactly at a memoised row).
        for cut in range(len(frame) + 1):
            assert _outcome(warm, frame[:cut]) == _cold(frame[:cut]), (name, cut)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_warm_codec_answers_damaged_frames_like_a_cold_one(name):
    warm = _warmed(_ORDERS["corpus-order"])
    rng = random.Random(f"pr16-{name}")
    for index in range(2000):
        frame = _damaged(GOLDEN[name], rng)
        assert _outcome(warm, frame) == _cold(frame), (index, frame.hex())


def _job8_rows():
    """Two rows of one job whose encodings share their first ``_MEMO_KEY``
    bytes (``job_id`` leads the row) and differ in length."""
    running = golden._jobs()[1]
    queued = dataclasses.replace(
        running, state=JobState.QUEUED, exec_nodes=(), comment="")
    long, short = WIRE.encode(running.stat_row()), WIRE.encode(queued.stat_row())
    assert long[:_MEMO_KEY] == short[:_MEMO_KEY] and len(long) > len(short)
    return running, queued


@pytest.mark.parametrize("longer_first", [True, False])
def test_frame_ending_at_a_row_shorter_than_a_remembered_sibling(longer_first):
    """The probe of a remembered length that overruns the frame slices
    *short* — and that short slice can be another remembered encoding.
    A hit must fit in the frame."""
    running, queued = _job8_rows()
    warm = WIRE.clone()
    for job in (running, queued) if longer_first else (queued, running):
        warm.decode(WIRE.encode(Reply(1, StatResp((job.wire_row,)))))
    for job in (queued, running):
        frame = WIRE.encode(Reply(2, StatResp((job.wire_row,))))
        for cut in range(len(frame) + 1):
            assert _outcome(warm, frame[:cut]) == _cold(frame[:cut]), cut
    # Both rows back to back, and the bare row as a whole frame.
    both = WIRE.encode(StatResp((queued.wire_row, running.wire_row)))
    assert warm.decode(both) == StatResp((queued.stat_row(), running.stat_row()))
    assert warm.decode(WIRE.encode(queued.wire_row)) == queued.stat_row()


@dataclasses.dataclass(frozen=True)
class _EvoV1:
    uuid: str


@dataclasses.dataclass(frozen=True)
class _EvoV2:
    uuid: str
    extra: object = None


def test_a_dict_holding_a_record_is_never_answered_from_the_memo():
    """Such a dict's value depends on the registry, not on its bytes
    alone: the same frame decodes to another record under another codec."""
    old, new = Codec(), Codec()
    old.register(_EvoV1, name="Evo")
    new.register(_EvoV2, name="Evo")
    frame = old.encode({"padding-past-the-memo-key": "x" * _MEMO_KEY,
                        "record": _EvoV1("u-1")})
    assert new.decode(frame)["record"] == _EvoV2("u-1")  # fills the default
    assert not new._memo
    assert old.decode(frame)["record"] == _EvoV1("u-1")
    assert not old._memo


# ---------------------------------------------------------------------------
# (c) a hit is fresh
# ---------------------------------------------------------------------------


def test_memo_hits_share_nothing_mutable():
    codec = WIRE.clone()
    frame = GOLDEN["sched_poll_resp_3rows"]
    cold = codec.decode(frame)
    assert len(codec._memo) == 3
    first = codec.decode(frame)  # every row from the memo
    second = codec.decode(frame)
    for a, b in zip(first.payload.rows, second.payload.rows):
        assert a == b and a is not b
        assert a["exec_nodes"] is not b["exec_nodes"]
    # The receiver owns what it was handed: scribbling on one result...
    row = first.payload.rows[1]
    row["state"] = "X"
    row["exec_nodes"].append("intruder")
    del row["comment"]
    # ...reaches neither an earlier result, a later one, nor the memo.
    third = codec.decode(frame)
    assert cold == second == third
    assert third.payload.rows[1]["exec_nodes"] == ["compute0", "compute1"]
    assert codec.encode(third) == frame
    assert codec.encode(second) == frame


# ---------------------------------------------------------------------------
# (e) the memo is bounded
# ---------------------------------------------------------------------------


def test_memo_clears_at_its_cap():
    codec = Codec()
    template = golden._jobs()[0].stat_row()
    frames = [
        codec.encode({**template, "job_id": f"{n}.torque"}) for n in range(10_000)
    ]
    high_water = 0
    for n, frame in enumerate(frames):
        assert codec.decode(frame)["job_id"] == f"{n}.torque"
        high_water = max(high_water, len(codec._memo))
        assert len(codec._memo) == n % _MEMO_CAP + 1  # clears, then refills
        assert sum(map(len, codec._memo_lengths.values())) <= len(codec._memo)
    assert high_water == _MEMO_CAP
    # Forgotten rows decode the ordinary way and are remembered again.
    assert codec.decode(frames[0]) == {**template, "job_id": "0.torque"}
    assert frames[0] in codec._memo


def test_memo_skips_what_it_cannot_index_or_afford():
    codec = Codec()
    codec.decode(codec.encode({"k": 1}))          # shorter than the key
    codec.decode(codec.encode({"k": "x" * 5000}))  # not worth a snapshot
    assert not codec._memo and not codec._memo_lengths
