"""Record frames on the codec's prebuilt-head path.

Each registered record carries the complete head of every frame it can
send (tag, name, fingerprint, field count), one getter for its field
values and one table of its shapes (full declaration, then each
wire-optional prefix); decode finds the record by the raw bytes of its
name and takes a one-loop path when the frame's header is one of its
shapes. These tests pin what that path must not change: the bytes of
every head, the frames that leave it for the one tolerant path, the
errors of names that are not there, and that ``elided_repr`` prints what
the encoder sends. CI's codec round-trip smoke runs this module.
"""

import dataclasses
from typing import NamedTuple

import pytest

from repro.net.codec import (
    WIRE,
    Codec,
    CodecError,
    elided_repr,
    mark_wire_optional,
    schema_fingerprint,
)
from repro.aa.wire import StateXferResp
from repro.joshua.wire import JDelReq, JStatReq, JSubReq
from repro.pbs.wire import AdminPurge, SchedPollReq, SchedPollResp, StatReq
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


@dataclasses.dataclass(frozen=True)
class Opt:
    a: object
    b: object = 0
    c: object = None
    d: object = ()


mark_wire_optional(Opt, "b", "c", "d")


class Pair(NamedTuple):
    left: object
    right: object = None


mark_wire_optional(Pair, "right")


class Single(NamedTuple):
    only: object


@pytest.fixture
def codec():
    codec = Codec()
    for cls in (Zero, One, Two, Opt, Pair, Single):
        codec.register(cls)
    return codec


def _head(name: str, fields: tuple[str, ...]) -> bytes:
    """A record head spelled out from the format table: tag, varint name
    length, UTF-8 name, 16-bit fingerprint, varint field count."""
    raw = name.encode("utf-8")
    fp = schema_fingerprint(name, fields)
    assert len(raw) < 0x80 and len(fields) < 0x80
    return bytes([0x0A, len(raw)]) + raw + fp.to_bytes(2, "big") + bytes([len(fields)])


def _int(value: int) -> bytes:
    assert -0x40 <= value < 0x40
    return bytes([0x03, value << 1 if value >= 0 else ~(value << 1)])


class TestHeads:
    @pytest.mark.parametrize("value, fields, body", [
        (Zero(), (), b""),
        (One(5), ("x",), _int(5)),
        (Single(-3), ("only",), _int(-3)),
        (Two(1, 2), ("a", "b"), _int(1) + _int(2)),
    ], ids=["zero", "one", "one-namedtuple", "two"])
    def test_small_records_round_trip_on_the_format_tables_bytes(
            self, codec, value, fields, body):
        frame = codec.encode(value)
        assert frame == _head(type(value).__name__, fields) + body
        decoded = codec.decode(frame)
        assert decoded == value and type(decoded) is type(value)

    @pytest.mark.parametrize("value, sent, body", [
        (Opt(1), 1, _int(1)),
        (Opt(1, 2), 2, _int(1) + _int(2)),
        (Opt(1, 0, 3), 3, _int(1) + _int(0) + _int(3)),
        (Opt(1, d=(4,)), 4,
         _int(1) + _int(0) + b"\x00" + b"\x07\x01" + _int(4)),
        # Type-exact elision: False is not the int default 0.
        (Opt(1, False), 2, _int(1) + b"\x01"),
    ], ids=["prefix-1", "prefix-2", "prefix-3", "full", "bool-not-int"])
    def test_every_wire_optional_prefix_round_trips(self, codec, value, sent, body):
        frame = codec.encode(value)
        assert frame == _head("Opt", ("a", "b", "c", "d")[:sent]) + body
        decoded = codec.decode(frame)
        assert decoded == value
        assert type(decoded.b) is type(value.b)

    @pytest.mark.parametrize("value, sent", [
        (Pair("l"), 1), (Pair("l", "r"), 2)], ids=["elided", "full"])
    def test_namedtuple_optional_tail_round_trips(self, codec, value, sent):
        frame = codec.encode(value)
        assert frame.startswith(_head("Pair", ("left", "right")[:sent]))
        assert codec.decode(frame) == value

    @pytest.mark.parametrize("value", [AdminPurge(), StatFs(), StatReq("1.x")],
                             ids=["AdminPurge", "StatFs", "StatReq"])
    def test_registered_zero_and_one_field_records(self, value):
        fields = tuple(f.name for f in dataclasses.fields(value))
        frame = WIRE.encode(value)
        assert frame.startswith(_head(type(value).__name__, fields))
        assert WIRE.decode(frame) == value


class TestOffThePrebuiltHeader:
    def test_non_canonical_field_count_decodes_on_the_fingerprint_path(
            self, codec):
        frame = codec.encode(Two(1, 2))
        head = _head("Two", ("a", "b"))
        assert frame[len(head) - 1] == 0x02
        # The count 2 as a two-byte varint: 0x82 0x00.
        padded = frame[:len(head) - 1] + b"\x82\x00" + frame[len(head):]
        assert codec.decode(padded) == Two(1, 2)

    @pytest.mark.parametrize("value, sent", [
        (Opt(1), 1), (Opt(1, 2), 2), (Opt(1, 0, 3), 3)],
        ids=["prefix-1", "prefix-2", "prefix-3"])
    def test_non_canonical_prefix_count_decodes_like_the_canonical_frame(
            self, codec, value, sent):
        frame = codec.encode(value)
        head = _head("Opt", ("a", "b", "c", "d")[:sent])
        assert frame.startswith(head) and frame[len(head) - 1] == sent
        # The same count as a two-byte varint matches no shape's header.
        padded = (frame[:len(head) - 1] + bytes([0x80 | sent, 0x00])
                  + frame[len(head):])
        assert codec.decode(padded) == codec.decode(frame) == value

    def test_non_canonical_name_length_decodes(self, codec):
        frame = codec.encode(One(5))
        padded = frame[:1] + bytes([frame[1] | 0x80, 0x00]) + frame[2:]
        assert codec.decode(padded) == One(5)

    def test_truncated_header_still_names_the_fingerprint(self, codec):
        head = _head("Two", ("a", "b"))
        with pytest.raises(CodecError, match="truncated schema fingerprint") as info:
            codec.decode(head[:-2])
        assert info.value.offset == len(head) - 3

    def test_unknown_record_raises_at_its_start(self, codec):
        # A list holding one record named "Nope": the record starts at byte 2.
        frame = b"\x08\x01" + _head("Nope", ())
        with pytest.raises(CodecError, match="unknown wire record 'Nope'") as info:
            codec.decode(frame)
        assert info.value.offset == 2

    def test_a_name_that_is_not_utf8_is_a_codec_error(self, codec):
        frame = b"\x0a\x02\xff\xfe" + b"\x00\x00\x00"
        with pytest.raises(CodecError, match="malformed frame: UnicodeDecodeError") as info:
            codec.decode(frame)
        assert info.value.offset is None

    def test_a_field_error_names_the_record_and_field(self, codec):
        frame = codec.encode(Two(1, 2))
        with pytest.raises(CodecError) as info:
            codec.decode(frame[:-1])
        assert info.value.record_context == "Two"
        assert info.value.field == "b"


@dataclasses.dataclass(frozen=True)
class EvoV1:
    uuid: str


@dataclasses.dataclass(frozen=True)
class EvoV2:
    uuid: str
    extra: object = None


class TestCloneOverrides:
    def test_decode_by_raw_name_reaches_the_evolved_class(self):
        base = Codec()
        base.register(EvoV1, name="Evo")
        evolved = base.clone(overrides={"Evo": EvoV2})
        old_frame = base.encode(EvoV1("u"))
        # The superseded class still encodes under its old shape ...
        assert evolved.encode(EvoV1("u")) == old_frame
        assert old_frame.startswith(_head("Evo", ("uuid",)))
        # ... and every "Evo" frame decodes to the evolved class.
        assert evolved.decode(old_frame) == EvoV2("u")
        new_frame = evolved.encode(EvoV2("u", 1))
        assert new_frame.startswith(_head("Evo", ("uuid", "extra")))
        assert evolved.decode(new_frame) == EvoV2("u", 1)
        assert base.decode(new_frame) == EvoV1("u")
        evolved.self_check()


#: Every registered record with a wire-optional tail.
WIRE_OPTIONAL = (JSubReq, JDelReq, JStatReq, SchedPollReq, SchedPollResp,
                 StateXferResp)


def _non_default(default):
    return "set" if default != "set" else "other"


class TestElidedRepr:
    def test_every_wire_optional_record_is_covered(self):
        assert set(WIRE_OPTIONAL) == {
            cls for cls in WIRE.registered_records()
            if getattr(cls, "__wire_optional__", ())}

    @pytest.mark.parametrize("cls", WIRE_OPTIONAL,
                             ids=lambda cls: cls.__name__)
    def test_repr_shows_exactly_the_fields_the_encoder_sends(self, cls):
        fields = tuple(f.name for f in dataclasses.fields(cls))
        optional = cls.__wire_optional__
        floor = len(fields) - len(optional)
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        for sent in range(floor, len(fields) + 1):
            # Required fields hold strings; the last sent optional field
            # holds a non-default value, every later one its default.
            values = {name: f"v{i}" for i, name in enumerate(fields[:floor])}
            if sent > floor:
                values[fields[sent - 1]] = _non_default(defaults[fields[sent - 1]])
            value = cls(**values)
            assert WIRE.encode(value).startswith(_head(cls.__name__, fields[:sent]))
            shown = elided_repr(value)
            assert shown == "{}({})".format(cls.__qualname__, ", ".join(
                f"{name}={getattr(value, name)!r}" for name in fields[:sent]))


class TestSelfCheck:
    def test_wire_and_its_clone_pass(self):
        WIRE.self_check()
        WIRE.clone().self_check()

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
            record, heads=(b"\x0a\x03Two\x00\x00\x02",))
        codec._records_by_type[Two] = codec._records_by_name["Two"]
        codec._records_by_raw[b"Two"] = codec._records_by_name["Two"]
        with pytest.raises(CodecError, match="Two: record head out of sync"):
            codec.self_check()

    def test_a_corrupted_shape_is_caught(self, codec):
        record = codec._records_by_name["Opt"]
        header, sent, tail = record.shapes[1]
        corrupt = (header, sent, tail[1:])  # one default factory lost
        codec._records_by_name["Opt"] = dataclasses.replace(
            record, shapes=(record.shapes[0], corrupt, *record.shapes[2:]))
        codec._records_by_type[Opt] = codec._records_by_name["Opt"]
        codec._records_by_raw[b"Opt"] = codec._records_by_name["Opt"]
        with pytest.raises(CodecError, match="Opt: shape table out of sync"):
            codec.self_check()

    def test_a_shape_whose_header_is_not_its_heads_is_caught(self, codec):
        record = codec._records_by_name["Opt"]
        # Swap the headers of two prefixes: each names the other's count.
        (h1, s1, t1), (h2, s2, t2) = record.shapes[1:3]
        codec._records_by_name["Opt"] = dataclasses.replace(
            record, shapes=(record.shapes[0], (h2, s1, t1), (h1, s2, t2),
                            *record.shapes[3:]))
        codec._records_by_type[Opt] = codec._records_by_name["Opt"]
        codec._records_by_raw[b"Opt"] = codec._records_by_name["Opt"]
        with pytest.raises(CodecError, match="Opt: shape table out of sync"):
            codec.self_check()
