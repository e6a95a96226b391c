"""Same bytes, less work: pre-encoded fragments, and a decoder without state.

* a :class:`Fragment` (what ``JobQueue.to_wire()`` and the by-id ``qstat``
  branch send) encodes to exactly the bytes of the row it stands for;
* decoding leaves a codec as it found it, so a codec that has decoded the
  whole corpus answers every frame — intact, cut short, or damaged —
  exactly as one that has not: same value, or the same :class:`CodecError`
  (message, ``offset``, ``record_context``, ``field``). A cache on the
  decode path would have to pass the same differential.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from repro.net.codec import WIRE, Codec, CodecError, Fragment
from repro.pbs.job import Job, JobRow, JobSpec, JobState
from repro.pbs.queue import JobQueue
from repro.pbs.wire import SchedPollResp, StatResp
from repro.rpc.wire import Reply

GOLDEN = {f["name"]: bytes.fromhex(f["hex"])
          for f in golden.committed("codec_golden")["frames"]}


# ---------------------------------------------------------------------------
# (a) a fragment encodes to the bytes of the row it stands for
# ---------------------------------------------------------------------------


def _fresh() -> Codec:
    """A codec with ``WIRE``'s records and enums, numbered alike, that has
    decoded nothing."""
    codec = Codec()
    for cls in WIRE._records_by_type:
        codec.register(cls)
    return codec


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
    assert all(type(f) is Fragment for f in fragments)
    node_free = (("compute0", True), ("compute1", False))
    assert WIRE.encode(Reply(7, StatResp(fragments))).hex() == \
        WIRE.encode(Reply(7, StatResp(rows))).hex()
    assert WIRE.encode(Reply(8, SchedPollResp(fragments, node_free))).hex() == \
        WIRE.encode(Reply(8, SchedPollResp(rows, node_free))).hex()
    # ...and what arrives is the rows, never a fragment.
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


@dataclasses.dataclass(frozen=True)
class _Unregistered:
    uuid: str


@pytest.mark.parametrize("value", [
    _Unregistered("u-1"),                                  # no codec entry
    golden._jobs()[0].stat_row()._replace(exec_nodes={"c0"}),  # a set field
    [{"ids": {1, 2}}],                                     # a set, nested
    (1, frozenset()),
])
def test_fragment_refuses_what_the_wire_refuses(value):
    with pytest.raises(CodecError):
        Fragment(value)


def test_fragment_holds_records_and_enums_under_the_wire_numbering():
    row = golden._jobs()[1].stat_row()
    assert Fragment(row)._wire == WIRE.encode(row)
    assert Fragment(row)._wire[0] == WIRE._records_by_type[JobRow].tag
    assert WIRE.decode(Fragment(JobState.HELD)._wire) is JobState.HELD


def test_fragment_is_an_immutable_value_with_the_values_repr():
    row = golden._jobs()[2].stat_row()
    one, two = Fragment(row), Fragment(JobRow(*row))
    assert one == two and hash(one) == hash(two) and one is not two
    assert one != Fragment(row._replace(comment="other"))
    assert one != row and one != WIRE.encode(row)
    assert repr(one) == repr(row)
    assert repr((one,)) == repr((row,))  # as wiretrace prints a payload
    with pytest.raises(AttributeError):
        one._wire = b""
    with pytest.raises(AttributeError):
        one.extra = 1


# ---------------------------------------------------------------------------
# (b) decoding keeps no state: warm-vs-cold differential
# ---------------------------------------------------------------------------


def _outcome(codec: Codec, frame: bytes):
    """What a receiver can observe of ``decode(frame)``. Values compare by
    ``repr``: exact types (``True`` is not ``1``), dict order, and NaN
    equal to itself."""
    try:
        return "value", repr(codec.decode(frame))
    except CodecError as exc:
        return "error", str(exc), exc.offset, exc.record_context, exc.field


_COLD = _fresh()


def _cold(frame: bytes):
    """The outcome on a codec with the shared registry that has decoded
    only earlier probes — what a fresh ``_fresh()`` gives, since decoding
    leaves a codec as it found it, without re-registering ~70 records per
    probe."""
    return _outcome(_COLD, frame)


def _warmed(order) -> Codec:
    codec = _fresh()
    for name in order:
        codec.decode(GOLDEN[name])
    return codec


def _state(codec: Codec) -> dict:
    """Everything a codec holds, its containers copied."""
    return {
        name: value.copy() if isinstance(value, (dict, list)) else value
        for name, value in vars(codec).items()
    }


def test_decoding_leaves_the_codec_as_it_found_it():
    codec = _fresh()
    codec.schema_digest()
    before = _state(codec)
    rng = random.Random("stateless")
    for frame in GOLDEN.values():
        for probe in (frame, frame[:len(frame) // 2], _damaged(frame, rng)):
            _outcome(codec, probe)
    assert _state(codec) == before


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
    for name, frame in GOLDEN.items():
        # Every strict prefix — among them each row cut short at the
        # frame's tail — and the intact frame.
        for cut in range(len(frame) + 1):
            assert _outcome(warm, frame[:cut]) == _cold(frame[:cut]), (name, cut)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_warm_codec_answers_damaged_frames_like_a_cold_one(name):
    warm = _warmed(_ORDERS["corpus-order"])
    rng = random.Random(f"pr16-{name}")
    for index in range(2000):
        frame = _damaged(GOLDEN[name], rng)
        assert _outcome(warm, frame) == _cold(frame), (index, frame.hex())
