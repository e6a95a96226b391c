"""Frame-level byte and error identity of the codec against golden frames.

``tests/data/codec_golden.json`` was captured (``tools/capture_codec_golden
.py``) on the commit *before* the codec's generic path was reshaped around
the measured traffic. The codec must still

* encode every value of the fixed corpus to exactly the recorded bytes,
* decode every recorded frame back to the corpus value, and
* reject every strict prefix of every frame with a :class:`CodecError`
  (never another exception type) carrying the recorded ``offset``,
  message, ``record_context`` and ``field``.

Complements the three scenario digests of ``tests/data/wire_baseline.json``
(which say *that* a byte moved) by saying *which* frame and *which* error.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.net.codec import WIRE, CodecError

REPO_ROOT = Path(__file__).parents[2]

spec = importlib.util.spec_from_file_location(
    "capture_codec_golden", REPO_ROOT / "tools" / "capture_codec_golden.py"
)
golden_tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden_tool)

with open(REPO_ROOT / "tests" / "data" / "codec_golden.json") as fh:
    GOLDEN = json.load(fh)

CORPUS = dict(golden_tool.corpus())
FRAMES = {frame["name"]: frame for frame in GOLDEN["frames"]}


def test_golden_file_covers_exactly_the_corpus():
    assert list(FRAMES) == [name for name, _ in golden_tool.corpus()]


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
