"""Record frames on the codec's prebuilt-head path.

Each registered record carries the complete head of its frames (tag, name
length, name) and one getter for its field values; decode finds the record
by the raw bytes of its name and decodes every declared field in one loop.
These tests pin what that path must not change: the bytes of every head,
a name length spelled in a longer varint, the errors of names that are not
there, and the registry audit. CI's codec round-trip smoke runs this
module.
"""

import dataclasses
from typing import NamedTuple

import pytest

from repro.net.codec import WIRE, Codec, CodecError
from repro.pbs.wire import AdminPurge, StatReq
from repro.pvfs.wire import StatFs


@dataclasses.dataclass(frozen=True)
class Zero:
    pass


@dataclasses.dataclass(frozen=True)
class One:
    x: object


@dataclasses.dataclass(frozen=True)
class Two:
    a: object
    b: object


class Single(NamedTuple):
    only: object


@pytest.fixture
def codec():
    codec = Codec()
    for cls in (Zero, One, Two, Single):
        codec.register(cls)
    return codec


def _head(name: str) -> bytes:
    """A record head spelled out from the format table: tag, varint name
    length, UTF-8 name."""
    raw = name.encode("utf-8")
    assert len(raw) < 0x80
    return bytes([0x0A, len(raw)]) + raw


def _int(value: int) -> bytes:
    assert -0x40 <= value < 0x40
    return bytes([0x03, value << 1 if value >= 0 else ~(value << 1)])


class TestHeads:
    @pytest.mark.parametrize("value, body", [
        (Zero(), b""),
        (One(5), _int(5)),
        (Single(-3), _int(-3)),
        (Two(1, 2), _int(1) + _int(2)),
    ], ids=["zero", "one", "one-namedtuple", "two"])
    def test_small_records_round_trip_on_the_format_tables_bytes(
            self, codec, value, body):
        frame = codec.encode(value)
        assert frame == _head(type(value).__name__) + body
        decoded = codec.decode(frame)
        assert decoded == value and type(decoded) is type(value)

    @pytest.mark.parametrize("value", [AdminPurge(), StatFs(), StatReq("1.x")],
                             ids=["AdminPurge", "StatFs", "StatReq"])
    def test_registered_zero_and_one_field_records(self, value):
        frame = WIRE.encode(value)
        assert frame == _head(type(value).__name__) + b"".join(
            WIRE.encode(getattr(value, f.name)) for f in dataclasses.fields(value))
        assert WIRE.decode(frame) == value


class TestOffThePrebuiltHeader:
    def test_non_canonical_name_length_decodes(self, codec):
        frame = codec.encode(One(5))
        padded = frame[:1] + bytes([frame[1] | 0x80, 0x00]) + frame[2:]
        assert codec.decode(padded) == One(5)

    def test_a_truncated_name_is_a_truncated_string(self, codec):
        head = _head("Two")
        with pytest.raises(CodecError, match="truncated string") as info:
            codec.decode(head[:-1])
        assert info.value.offset == 2

    def test_unknown_record_raises_at_its_start(self, codec):
        # A list holding one record named "Nope": the record starts at byte 2.
        frame = b"\x08\x01" + _head("Nope")
        with pytest.raises(CodecError, match="unknown wire record 'Nope'") as info:
            codec.decode(frame)
        assert info.value.offset == 2

    def test_a_name_that_is_not_utf8_is_a_codec_error(self, codec):
        frame = b"\x0a\x02\xff\xfe"
        with pytest.raises(CodecError, match="malformed frame: UnicodeDecodeError") as info:
            codec.decode(frame)
        assert info.value.offset is None

    def test_a_field_error_names_the_record_and_field(self, codec):
        frame = codec.encode(Two(1, 2))
        with pytest.raises(CodecError) as info:
            codec.decode(frame[:-1])
        assert info.value.record_context == "Two"
        assert info.value.field == "b"


class TestSelfCheck:
    def test_wire_and_its_clone_pass(self):
        WIRE.self_check()
        # A fresh codec over the same registry audits the same way.
        clone = Codec()
        for cls in sorted(WIRE._records_by_type, key=lambda cls: cls.__name__):
            clone.register(cls)
        for cls in WIRE._enums_by_name.values():
            clone.register_enum(cls)
        clone.self_check()

    def test_a_missing_raw_name_is_caught(self, codec):
        del codec._records_by_raw[b"Two"]
        with pytest.raises(CodecError, match="raw-name table out of sync"):
            codec.self_check()

    def test_a_raw_name_bound_to_another_record_is_caught(self, codec):
        codec._records_by_raw[b"Two"] = codec._records_by_raw[b"One"]
        with pytest.raises(CodecError, match="Two: raw-name table out of sync"):
            codec.self_check()

    def test_a_stale_head_is_caught(self, codec):
        record = codec._records_by_name["Two"]
        codec._records_by_name["Two"] = dataclasses.replace(
            record, head=b"\x0a\x03Tw0")
        codec._records_by_type[Two] = codec._records_by_name["Two"]
        codec._records_by_raw[b"Two"] = codec._records_by_name["Two"]
        with pytest.raises(CodecError, match="Two: record head out of sync"):
            codec.self_check()
