"""Record frames on the codec's prebuilt-head path.

Each registered record (and enum) has a number, and the head of its frames
is the one byte ``0x0A + number``; it carries one getter for its field
values, and decode finds the record by its number in a table and decodes
every declared field in one loop. These tests pin what that path must not
change: the byte of every head, the numbering, the errors of numbers that
are not there, and the registry audit. CI's determinism canaries run this
module a second time under ``REPRO_SANITIZE=1``.
"""

import dataclasses
from typing import NamedTuple

import pytest

from repro.net.codec import WIRE, Codec, CodecError
from repro.pbs.job import JobState
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


def _head(codec: Codec, name: str) -> bytes:
    """A record head spelled out from the format table: the one byte
    ``0x0A`` + the record's number in the codec's schema."""
    schema = codec.schema()
    entry = schema["records"].get(name) or schema["enums"][name]
    return bytes([0x0A + entry["number"]])


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
        assert frame == _head(codec, type(value).__name__) + body
        decoded = codec.decode(frame)
        assert decoded == value and type(decoded) is type(value)

    @pytest.mark.parametrize("value", [AdminPurge(), StatFs(), StatReq("1.x")],
                             ids=["AdminPurge", "StatFs", "StatReq"])
    def test_registered_zero_and_one_field_records(self, value):
        frame = WIRE.encode(value)
        assert frame == _head(WIRE, type(value).__name__) + b"".join(
            WIRE.encode(getattr(value, f.name)) for f in dataclasses.fields(value))
        assert WIRE.decode(frame) == value

    def test_an_enum_member_is_its_head_and_value(self):
        frame = WIRE.encode(JobState.QUEUED)
        assert frame == _head(WIRE, "JobState") + WIRE.encode("Q")
        assert WIRE.decode(frame) is JobState.QUEUED


class TestNumbering:
    def test_every_head_is_one_byte_and_the_numbers_run_from_zero(self):
        schema = WIRE.schema()
        entries = {**schema["records"], **schema["enums"]}
        assert "JobState" in schema["enums"]
        numbers = sorted(entry["number"] for entry in entries.values())
        assert numbers == list(range(len(entries)))
        for cls, record in WIRE._records_by_type.items():
            assert len(_head(WIRE, cls.__name__)) == 1
            assert record.tag == 0x0A + entries[cls.__name__]["number"]

    def test_numbers_follow_registration_order(self, codec):
        assert [_head(codec, name) for name in ("Zero", "One", "Two", "Single")] == [
            b"\x0a", b"\x0b", b"\x0c", b"\x0d"]

    def test_a_number_past_the_head_byte_is_refused(self):
        codec = Codec()
        for index in range(0x100 - 0x0A):
            codec.register(dataclasses.make_dataclass(f"R{index}", []))
        with pytest.raises(CodecError, match="does not fit the one head byte"):
            codec.register(dataclasses.make_dataclass("OneTooMany", []))
        assert len(codec._records_by_type) == 0x100 - 0x0A


class TestOffThePrebuiltHeader:
    def test_a_bare_head_names_its_field(self, codec):
        # A frame cut right after its head: the first field is missing.
        head = _head(codec, "Two")
        with pytest.raises(CodecError, match="truncated frame at byte 1") as info:
            codec.decode(head)
        assert info.value.offset == 1
        assert info.value.record_context == "Two"
        assert info.value.field == "a"

    def test_unknown_record_raises_at_its_start(self, codec):
        # A list holding one record numbered past the four registered (4):
        # the record starts at byte 2.
        frame = b"\x08\x01" + bytes([0x0A + 4])
        with pytest.raises(CodecError, match="unknown wire record number 4") as info:
            codec.decode(frame)
        assert info.value.offset == 2

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
        for cls in WIRE._records_by_type:
            clone.register(cls)
        clone.self_check()
        assert clone.schema() == WIRE.schema()

    def test_a_missing_number_is_caught(self, codec):
        del codec._numbered[-1]
        with pytest.raises(CodecError, match="number table out of sync"):
            codec.self_check()

    def test_a_misfiled_number_is_caught(self, codec):
        codec._numbered[2] = codec._numbered[1]
        with pytest.raises(CodecError, match="One: record number out of sync"):
            codec.self_check()

    def test_a_stale_head_is_caught(self, codec):
        record = dataclasses.replace(codec._records_by_name["Two"], tag=0x0B)
        codec._records_by_name["Two"] = codec._records_by_type[Two] = record
        codec._numbered[2] = record
        with pytest.raises(CodecError, match="Two: record number out of sync"):
            codec.self_check()
