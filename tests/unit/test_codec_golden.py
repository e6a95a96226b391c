"""Frame-level byte and error identity of the codec against golden frames.

``tests/data/codec_golden.json`` (the ``codec_golden`` entry of
``tools/golden.py``) was first captured on the commit *before* the codec's
generic path was reshaped around the measured traffic, and re-captured on
purpose twice: when record frames lost their schema fingerprint and field
count, and when a record's head became the one byte of its number. The
codec must still

* encode every value of the fixed corpus to exactly the recorded bytes,
* decode every recorded frame back to the corpus value, and
* reject every strict prefix of every frame with a :class:`CodecError`
  (never another exception type) carrying the recorded ``offset``,
  message, ``record_context`` and ``field``.

Complements the three scenario digests of ``tests/data/wire_baseline.json``
(which say *that* a byte moved) by saying *which* frame and *which* error.
"""

import tracemalloc

import pytest

import golden
from repro.net.codec import WIRE, CodecError
from repro.rpc.wire import Request

GOLDEN = golden.committed("codec_golden")
CORPUS = dict(golden.corpus())
FRAMES = {frame["name"]: frame for frame in GOLDEN["frames"]}


def test_golden_file_covers_exactly_the_corpus():
    assert list(FRAMES) == [name for name, _ in golden.corpus()]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_encoder_reproduces_the_golden_frame(name):
    assert WIRE.encode(CORPUS[name]).hex() == FRAMES[name]["hex"]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_frame_decodes_to_the_corpus_value(name):
    value = WIRE.decode(bytes.fromhex(FRAMES[name]["hex"]))
    assert value == CORPUS[name]
    assert type(value) is type(CORPUS[name])


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_every_strict_prefix_raises_the_golden_codec_error(name):
    frame = bytes.fromhex(FRAMES[name]["hex"])
    cut = 0
    for count, offset, error in FRAMES[name]["truncations"]:
        what, record, field = GOLDEN["errors"][error]
        for _ in range(count):
            want_offset = cut if offset is None else offset
            message = f"{what} at byte {want_offset}"
            if record is not None:
                message += f" (while decoding field {field!r} of {record})"
            with pytest.raises(CodecError) as caught:
                WIRE.decode(frame[:cut])
            exc = caught.value
            assert (exc.offset, exc.record_context, exc.field, str(exc)) == (
                want_offset, record, field, message), f"prefix of {cut} bytes"
            cut += 1
    assert cut == len(frame)  # the golden rows cover every strict prefix


def _varint(value):
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _hostile_frames():
    """One frame per length-prefixed shape, each declaring 2**62 items or
    bytes and then carrying eight (``None`` values)."""
    huge, tail = _varint(2 ** 62), bytes(8)
    for name, tag in [("str", 0x05), ("bytes", 0x06), ("tuple", 0x07),
                      ("list", 0x08), ("dict", 0x09)]:
        yield name, bytes([tag]) + huge + tail
    # A record whose first field is such a list: a real Request frame up
    # to its first field.
    frame = WIRE.encode(Request(1, None))
    head = bytes([0x0A + WIRE.schema()["records"]["Request"]["number"]])
    assert frame == head + WIRE.encode(1) + WIRE.encode(None)
    yield "record", head + bytes([0x08]) + huge + tail


@pytest.mark.parametrize("name, frame", list(_hostile_frames()))
def test_hostile_length_prefix_allocates_by_the_frame_not_the_prefix(name, frame):
    """The decoder allocates per element actually present: what a declared
    count or length can cost is bounded by the frame that carries it."""
    tracemalloc.start()
    try:
        with pytest.raises(CodecError) as caught:
            WIRE.decode(frame)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 <= caught.value.offset <= len(frame)
    assert peak < 64 * 1024
