"""Version-tolerant decoding, codec cloning, per-node codecs, and the
decode-error diagnostics (byte offset + in-progress record context).

The runtime half of the R7 wire-schema contract: a receiver whose local
declaration differs from the sender's by a *defaulted trailing append*
decodes cleanly in either direction; every other skew raises a
:class:`CodecError` that says where in the frame and inside which record it
failed.
"""

from dataclasses import dataclass

import pytest

from repro.net import Address, Network
from repro.net.codec import WIRE, Codec, CodecError, schema_fingerprint
from repro.sim import Kernel
from repro.util.errors import NetworkError


@dataclass(frozen=True)
class NoteV1:
    uuid: str
    body: str


@dataclass(frozen=True)
class NoteV2:
    """NoteV1 plus one defaulted trailing field — a compatible delta."""

    uuid: str
    body: str
    origin: str = ""


@dataclass(frozen=True)
class NoteV2Undefaulted:
    """NoteV1 plus an UNdefaulted trailing field — a breaking delta."""

    uuid: str
    body: str
    origin: str


@dataclass(frozen=True)
class NoteRenamed:
    """Same field count as NoteV1, different names — unalignable."""

    uuid: str
    text: str


def _old() -> Codec:
    codec = Codec()
    codec.register(NoteV1, name="Note")
    return codec


def _new(cls: type = NoteV2) -> Codec:
    codec = Codec()
    codec.register(cls, name="Note")
    return codec


class TestTolerantDecode:
    def test_old_sender_new_receiver_fills_default(self):
        frame = _old().encode(NoteV1("u1", "hi"))
        got = _new().decode(frame)
        assert got == NoteV2("u1", "hi", origin="")

    def test_new_sender_old_receiver_skips_unknown_trailing(self):
        frame = _new().encode(NoteV2("u1", "hi", origin="head1"))
        got = _old().decode(frame)
        assert got == NoteV1("u1", "hi")

    def test_fill_without_default_is_an_error(self):
        frame = _old().encode(NoteV1("u1", "hi"))
        with pytest.raises(CodecError) as err:
            _new(NoteV2Undefaulted).decode(frame)
        assert "cannot fill field 'origin'" in str(err.value)
        assert "breaking delta" in str(err.value)

    def test_same_count_fingerprint_mismatch_is_an_error(self):
        # A rename keeps the field count; positional alignment would
        # silently misassign, so it must refuse.
        frame = _old().encode(NoteV1("u1", "hi"))
        with pytest.raises(CodecError) as err:
            _new(NoteRenamed).decode(frame)
        assert "cannot be aligned positionally" in str(err.value)

    def test_skew_inside_nested_containers_is_tolerated(self):
        frame = _old().encode([NoteV1("a", "x"), NoteV1("b", "y")])
        assert _new().decode(frame) == [
            NoteV2("a", "x"), NoteV2("b", "y"),
        ]


class TestClone:
    def test_clone_override_keeps_old_class_encodable(self):
        base = _old()
        evolved = base.clone(overrides={"Note": NoteV2})
        # Shared protocol code on the upgraded node still constructs V1;
        # the alias encodes it under the OLD shape, and decoding it back
        # through the same codec lands on the new class with the default.
        frame = evolved.encode(NoteV1("u", "b"))
        assert evolved.decode(frame) == NoteV2("u", "b", origin="")
        # The base codec is untouched (clone is a copy, not a view).
        assert base.decode(base.encode(NoteV1("u", "b"))) == NoteV1("u", "b")

    def test_clone_decodes_to_override_class(self):
        evolved = _old().clone(overrides={"Note": NoteV2})
        frame = evolved.encode(NoteV2("u", "b", origin="o"))
        got = evolved.decode(frame)
        assert isinstance(got, NoteV2) and got.origin == "o"

    def test_clone_without_overrides_round_trips(self):
        copy = _old().clone()
        assert copy.decode(copy.encode(NoteV1("u", "b"))) == NoteV1("u", "b")

    def test_fingerprint_is_over_field_names(self):
        # Type changes are wire-invisible by design (R7 gates them
        # statically); only names feed the fingerprint.
        assert schema_fingerprint("Note", ("uuid", "body")) == (
            schema_fingerprint("Note", ("uuid", "body"))
        )
        assert schema_fingerprint("Note", ("uuid", "body")) != (
            schema_fingerprint("Note", ("uuid", "text"))
        )
        assert schema_fingerprint("Note", ("uuid", "body")) != (
            schema_fingerprint("Other", ("uuid", "body"))
        )


class TestDecodeErrorDiagnostics:
    def test_truncated_record_names_offset_record_and_field(self):
        codec = _old()
        frame = codec.encode(NoteV1("u1", "hello world"))
        with pytest.raises(CodecError) as err:
            codec.decode(frame[:-4])
        exc = err.value
        assert isinstance(exc.offset, int) and exc.offset > 0
        assert exc.record_context == "Note"
        assert exc.field == "body"
        assert "at byte" in str(exc)
        assert "(while decoding field 'body' of Note)" in str(exc)

    def test_nested_failure_names_innermost_record(self):
        @dataclass(frozen=True)
        class Outer:
            inner: NoteV1

        codec = _old()
        codec.register(Outer)
        frame = codec.encode(Outer(NoteV1("u", "payload")))
        with pytest.raises(CodecError) as err:
            codec.decode(frame[:-2])
        assert err.value.record_context == "Note"
        assert err.value.field == "body"

    def test_unknown_tag_reports_offset(self):
        with pytest.raises(CodecError) as err:
            Codec().decode(b"\xff")
        assert "unknown wire tag 0xFF at byte 0" in str(err.value)
        assert err.value.offset == 0

    def test_unknown_record_reports_offset(self):
        frame = _old().encode(NoteV1("u", "b"))
        with pytest.raises(CodecError) as err:
            Codec().decode(frame)
        assert "unknown wire record 'Note'" in str(err.value)
        assert err.value.offset == 0

    def test_trailing_bytes_report_offset(self):
        codec = Codec()
        frame = codec.encode(42)
        with pytest.raises(CodecError) as err:
            codec.decode(frame + b"\x00")
        assert "trailing bytes" in str(err.value)
        assert err.value.offset == len(frame)

    def test_truncation_inside_skipped_trailing_field(self):
        frame = _new().encode(NoteV2("u", "b", origin="somewhere"))
        with pytest.raises(CodecError) as err:
            _old().decode(frame[:-3])
        assert err.value.field == "<unknown trailing field>"
        assert err.value.record_context == "Note"


# A distinct wire name keeps this registration from colliding with other
# test modules sharing the interpreter-wide WIRE registry.
@dataclass(frozen=True)
class EvoNoteV1:
    uuid: str
    body: str


@dataclass(frozen=True)
class EvoNoteV2:
    uuid: str
    body: str
    origin: str = ""


WIRE.register(EvoNoteV1, name="EvoNote")


class TestPerNodeCodecs:
    @pytest.fixture
    def kernel(self):
        return Kernel(seed=11)

    @pytest.fixture
    def net(self, kernel):
        network = Network(kernel)
        for name in ("a", "b"):
            network.register_node(name)
        return network

    def _exchange(self, kernel, net, payload, src="a", dst="b"):
        src_ep = net.bind(src, 1)
        dst_ep = net.bind(dst, 1)
        src_ep.send(Address(dst, 1), payload)
        got = []

        def rx(k):
            got.append((yield dst_ep.recv()))

        kernel.spawn(rx(kernel))
        kernel.run()
        [delivery] = got
        return delivery.payload

    def test_codec_for_defaults_to_shared_wire(self, net):
        assert net.codec_for("a") is WIRE

    def test_set_and_revert_node_codec(self, net):
        evolved = WIRE.clone(overrides={"EvoNote": EvoNoteV2})
        net.set_node_codec("b", evolved)
        assert net.codec_for("b") is evolved
        net.set_node_codec("b", None)
        assert net.codec_for("b") is WIRE

    def test_unknown_node_rejected(self, net):
        with pytest.raises(NetworkError):
            net.set_node_codec("zz", WIRE)

    def test_old_to_new_node_fills_default(self, kernel, net):
        net.set_node_codec("b", WIRE.clone(overrides={"EvoNote": EvoNoteV2}))
        got = self._exchange(kernel, net, EvoNoteV1("u1", "hi"))
        assert got == EvoNoteV2("u1", "hi", origin="")

    def test_new_to_old_node_drops_trailing_field(self, kernel, net):
        net.set_node_codec("a", WIRE.clone(overrides={"EvoNote": EvoNoteV2}))
        got = self._exchange(kernel, net, EvoNoteV2("u1", "hi", origin="a"))
        assert got == EvoNoteV1("u1", "hi")
