"""Decode's record builders against the constructor they stand for.

Decode makes each record through its ``_Record.build``: ``tuple.__new__``
for a NamedTuple, a function compiled at registration that fills a fresh
instance's ``__dict__`` for a plain dataclass, and ``cls(*values)`` for
anything whose ``__init__`` must run. These tests pin that the first two
return exactly what the third would — same type, ``vars()`` in the same
order, ``==``, ``hash`` and ``repr`` — on every golden frame and for every
registered record, and that a record which validates still refuses bad
values as a :class:`CodecError`.
"""

import dataclasses
import json
from functools import partial
from pathlib import Path

import pytest

# Register every wire module's records, as a simulation does at import.
import repro.aa.wire  # noqa: F401
import repro.gcs.messages  # noqa: F401
import repro.joshua.wire  # noqa: F401
import repro.net.frames  # noqa: F401
import repro.pbs.wire  # noqa: F401
import repro.pvfs.metadata  # noqa: F401
import repro.pvfs.wire  # noqa: F401
import repro.rpc.wire  # noqa: F401
from repro.net.codec import WIRE, Codec, CodecError, _construct
from repro.pbs.job import JobSpec
from repro.pbs.wire import SubmitReq

GOLDEN = json.loads(
    (Path(__file__).parents[1] / "data" / "codec_golden.json").read_text()
)
RECORDS = dict(sorted(WIRE._records_by_name.items()))

#: The records decode still builds with ``cls(*values)``: their own
#: ``__init__`` has work to do (``JobSpec.__post_init__`` validates, and an
#: enum looks its member up).
CONSTRUCTED = {"JobSpec", "JobState"}
#: The NamedTuple records, built by ``tuple.__new__``.
TUPLES = {"Address", "JobRow", "MessageId"}


def _kind(build) -> str:
    if isinstance(build, partial) and build.func is _construct:
        return "constructed"
    if isinstance(build, partial) and build.func is tuple.__new__:
        return "tuple"
    return "compiled"


def _constructing_clone():
    """A fresh codec over ``WIRE``'s registry whose every record builds with
    ``cls(*values)``."""
    codec = Codec()
    for cls in WIRE._records_by_type:
        codec.register(cls)
    for number, record in enumerate(codec._numbered):
        plain = dataclasses.replace(record, build=partial(_construct, record.cls))
        codec._records_by_name[record.name] = plain
        codec._records_by_type[record.cls] = plain
        codec._numbered[number] = plain
    return codec


def _hash(value):
    try:
        return hash(value)
    except TypeError as exc:  # a field holds a list or a dict
        return type(exc)


def _assert_same(built, constructed, path="value"):
    """*built* and *constructed* agree in type, fields (order included),
    ``==``, ``hash`` and ``repr``, all the way down."""
    assert type(built) is type(constructed), path
    assert built == constructed, path
    assert _hash(built) == _hash(constructed), path
    assert repr(built) == repr(constructed), path
    if type(built).__name__ in RECORDS and hasattr(built, "__dict__"):
        assert list(vars(built).items()) == list(vars(constructed).items()), path
        items = [(f, vars(built)[f], vars(constructed)[f]) for f in vars(built)]
    elif isinstance(built, (tuple, list)):
        items = [(i, a, b) for i, (a, b) in enumerate(zip(built, constructed))]
    elif isinstance(built, dict):
        items = [(k, built[k], constructed[k]) for k in built]
    else:
        return
    for key, a, b in items:
        _assert_same(a, b, f"{path}.{key}")


def test_every_record_but_the_validating_ones_skips_its_init():
    kinds = {name: _kind(record.build) for name, record in RECORDS.items()}
    assert {n for n, k in kinds.items() if k == "constructed"} == CONSTRUCTED
    assert {n for n, k in kinds.items() if k == "tuple"} == TUPLES
    assert len(RECORDS) > len(CONSTRUCTED) + len(TUPLES)


@pytest.mark.parametrize("frame", GOLDEN["frames"], ids=lambda f: f["name"])
def test_golden_frame_builds_what_the_constructor_builds(frame):
    data = bytes.fromhex(frame["hex"])
    _assert_same(WIRE.decode(data), _constructing_clone().decode(data))


@pytest.mark.parametrize("name", sorted(set(RECORDS) - CONSTRUCTED))
def test_builder_equals_the_constructor_on_every_record(name):
    record = RECORDS[name]
    # Distinct hashable values, one per field, so a swapped or dropped
    # field shows up.
    values = [("value", index) for index in range(len(record.fields))]
    _assert_same(record.build(list(values)), record.cls(*values))


def test_a_refused_job_spec_is_still_a_codec_error():
    bad = object.__new__(JobSpec)
    for field in dataclasses.fields(JobSpec):
        object.__setattr__(bad, field.name, field.default)
    object.__setattr__(bad, "nodes", 0)
    frame = WIRE.encode(SubmitReq(bad))
    with pytest.raises(CodecError, match="job needs at least one node"):
        WIRE.decode(frame)
