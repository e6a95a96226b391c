"""Property-based tests of the wire codec (:mod:`repro.net.codec`).

* every plain value tree round-trips exactly (encode -> decode == value),
  and :func:`encoded_size` is the exact frame length;
* every record type registered by the protocol layers round-trips from an
  exemplar instance, and the registry is exactly the set this test knows
  how to build (a new wire type must be added here, which is the point);
* decoding always produces a *fresh* object graph — no identity from the
  encoder's side survives the crossing;
* unsupported values (sets, unregistered classes) are encode errors, and
  corrupt frames are decode errors, never silent misreads.
"""

import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# Importing the wire modules populates the shared registry, exactly as a
# simulation does: each module registers its own types at import time.
import repro.aa.wire  # noqa: F401
import repro.gcs.messages  # noqa: F401
import repro.joshua.wire  # noqa: F401
import repro.net.frames  # noqa: F401
import repro.pbs.wire  # noqa: F401
import repro.pvfs.metadata  # noqa: F401
import repro.pvfs.wire  # noqa: F401
import repro.rpc.wire  # noqa: F401
from repro.gcs.messages import DataMsg, MessageId
from repro.joshua.wire import StateXferResp
from repro.net.address import Address
from repro.net.codec import WIRE, CodecError, encoded_size
from repro.pbs.job import JobSpec, JobState
from repro.pbs.wire import SubmitReq
from repro.rpc.wire import Request

# ---------------------------------------------------------------------------
# plain value trees
# ---------------------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

value_trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.one_of(st.text(max_size=8), st.integers()), children, max_size=4
        ),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(value=value_trees)
def test_plain_values_round_trip_exactly(value):
    frame = WIRE.encode(value)
    assert isinstance(frame, bytes)
    assert WIRE.decode(frame) == value
    assert encoded_size(value) == len(frame)


@settings(max_examples=100, deadline=None)
@given(value=value_trees)
def test_decode_never_returns_the_encoder_side_object(value):
    decoded = WIRE.decode(WIRE.encode(value))
    if isinstance(value, (list, dict)) and value:
        assert decoded is not value


def test_bool_and_int_stay_distinct():
    for value in (True, False, 1, 0):
        decoded = WIRE.decode(WIRE.encode(value))
        assert decoded == value and type(decoded) is type(value)


def test_large_and_negative_ints_round_trip():
    for value in (-1, -(2**70), 2**70, 2**31 - 1, -(2**31)):
        assert WIRE.decode(WIRE.encode(value)) == value


# ---------------------------------------------------------------------------
# registered wire records: one exemplar per registered type
# ---------------------------------------------------------------------------

_ADDRESS = Address("n0", 15001)
_MSG_ID = MessageId(_ADDRESS, 2)
_SPEC = JobSpec(name="j", owner="u", nodes=1, walltime=2.0)

#: Exemplars for field annotations naming wire classes.
_BY_CLASS_NAME = {
    "Address": _ADDRESS,
    "MessageId": _MSG_ID,
    "JobSpec": _SPEC,
    "JobState": JobState.QUEUED,
    "StateXferResp": StateXferResp("m", (), 1, ()),
}

#: Exemplars for scalar / union annotations.
_BY_ANNOTATION = {
    "int": 3,
    "float": 1.5,
    "str": "x",
    "bool": True,
    "bytes": b"b",
    "Any": ("any", 1),
    "int | None": 3,
    "float | None": 1.5,
    "str | None": "x",
    "Address | None": _ADDRESS,
}


def _exemplar_value(annotation):
    text = annotation.__name__ if isinstance(annotation, type) else str(annotation)
    forward = re.fullmatch(r"ForwardRef\('([^']+)'\)", text)
    if forward:
        text = forward.group(1)
    if text in _BY_ANNOTATION:
        return _BY_ANNOTATION[text]
    if text.startswith("tuple"):
        return ()
    if text.startswith("dict"):
        return {}
    head = re.match(r"\w+", text)
    if head and head.group(0) in _BY_CLASS_NAME:
        return _BY_CLASS_NAME[head.group(0)]
    raise AssertionError(
        f"no exemplar rule for field annotation {text!r} — "
        "extend test_codec_properties"
    )


def _exemplar(cls):
    if cls in (type(v) for v in _BY_CLASS_NAME.values()):
        return next(v for v in _BY_CLASS_NAME.values() if type(v) is cls)
    if dataclasses.is_dataclass(cls):
        pairs = [(f.name, f.type) for f in dataclasses.fields(cls)]
    else:  # NamedTuple
        pairs = [(name, cls.__annotations__[name]) for name in cls._fields]
    return cls(**{name: _exemplar_value(ann) for name, ann in pairs})


def test_every_registered_record_round_trips():
    # The registry is shared per interpreter and other *test* modules may
    # register payload types of their own; the completeness claim is about
    # the package's wire surface.
    records = [
        cls for cls in sorted(WIRE._records_by_type, key=lambda cls: cls.__name__)
        if cls.__module__.startswith("repro.")
    ]
    assert len(records) > 60  # the whole wire surface, not a subset
    for cls in records:
        value = _exemplar(cls)
        frame = WIRE.encode(value)
        decoded = WIRE.decode(frame)
        assert decoded == value, cls.__name__
        assert type(decoded) is cls
        assert encoded_size(value) == len(frame)


def test_enum_members_round_trip_to_the_singleton():
    for member in JobState:
        decoded = WIRE.decode(WIRE.encode(member))
        assert decoded is member  # enum members are process-wide singletons


def test_nested_protocol_stack_round_trips():
    """A realistic full-depth frame: GCS data message carrying an rpc
    request carrying a PBS submit — the deepest nesting the stack builds."""
    msg = DataMsg(
        msg_id=_MSG_ID,
        view_id=4,
        service="joshua",
        payload=Request(7, SubmitReq(spec=_SPEC, force_job_id=None)),
    )
    decoded = WIRE.decode(WIRE.encode(msg))
    assert decoded == msg
    assert decoded is not msg
    assert decoded.payload.payload.spec == _SPEC
    assert decoded.payload.payload.spec is not _SPEC


# ---------------------------------------------------------------------------
# rejection: unsupported values and corrupt frames
# ---------------------------------------------------------------------------


def test_sets_are_rejected():
    with pytest.raises(CodecError):
        WIRE.encode({1, 2, 3})
    with pytest.raises(CodecError):
        WIRE.encode(frozenset({"a"}))


def test_unregistered_classes_are_rejected():
    @dataclasses.dataclass(frozen=True)
    class Stray:
        n: int

    with pytest.raises(CodecError):
        WIRE.encode(Stray(1))


def test_truncated_and_trailing_frames_are_decode_errors():
    frame = WIRE.encode(("hello", 42))
    with pytest.raises(CodecError):
        WIRE.decode(frame[:-1])
    with pytest.raises(CodecError):
        WIRE.decode(frame + b"\x00")
    with pytest.raises(CodecError):
        WIRE.decode(b"\xff")


_GOLDEN_FRAMES = [
    bytes.fromhex(frame["hex"])
    for frame in json.loads(
        (Path(__file__).parents[1] / "data" / "codec_golden.json").read_text()
    )["frames"]
]
#: A five-byte varint (~4 G): spliced over a length or count byte it claims
#: far more payload than the frame holds.
_HUGE_VARINT = b"\xff\xff\xff\xff\x0f"


@st.composite
def _damaged_golden_frames(draw):
    """A golden frame with 1-3 bytes overwritten, then possibly one byte
    replaced by an inflated length and possibly a truncated tail."""
    frame = bytearray(draw(st.sampled_from(_GOLDEN_FRAMES)))
    positions = st.integers(0, len(frame) - 1)
    for _ in range(draw(st.integers(1, 3))):
        frame[draw(positions)] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        at = draw(positions)
        frame[at:at + 1] = _HUGE_VARINT
    if draw(st.booleans()):
        del frame[draw(st.integers(0, len(frame))):]
    return bytes(frame)


@settings(max_examples=3000, deadline=None, derandomize=True)
@given(frame=_damaged_golden_frames())
def test_malformed_frames_decode_or_raise_codec_error_only(frame):
    """Whatever arrives, ``decode`` answers with a value or a
    :class:`CodecError` — never a ``UnicodeDecodeError`` from a string's
    bytes, a ``TypeError`` from an unhashable key or a record's arity, a
    ``ValueError`` from an enum, or a record's own ``__post_init__``."""
    try:
        WIRE.decode(frame)
    except CodecError:
        pass


# ---------------------------------------------------------------------------
# registry self-check stays green after all layers registered
# ---------------------------------------------------------------------------


def test_registry_self_check_passes():
    WIRE.self_check()
