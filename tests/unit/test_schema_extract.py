"""The wire schema read from a codec's registry (:meth:`Codec.schema`).

A base set of records registered on a fresh
:class:`~repro.net.codec.Codec` pins what the committed
``WIRE_SCHEMA.lock`` records of each: field names and order, annotation
and default text, the record kind, enum member values, and nothing a
codec does not register.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

from repro.net.codec import Codec

#: Where the codec places this module's records (its path below ``tests``).
MODULE = "unit/test_schema_extract.py"


# The golden base: two records of each kind plus an enum. NotOnTheWire is
# never registered and must not appear.
class Color(enum.Enum):
    RED = "r"
    BLUE = "b"


@dataclass(frozen=True)
class OpenReq:
    path: str
    mode: str = "r"
    _LEGAL: ClassVar[tuple] = ()


class SeekReq(NamedTuple):
    fd: int
    offset: int = 0


@dataclass(frozen=True)
class NotOnTheWire:
    x: int


BASE = (Color, OpenReq, SeekReq)


def _schema(*classes: type) -> dict:
    """The schema of a fresh codec holding the base records, each replaced
    by the same-named class in *classes* (extra names are added)."""
    by_name = {cls.__name__: cls for cls in BASE}
    by_name.update({cls.__name__: cls for cls in classes})
    codec = Codec()
    for cls in by_name.values():
        codec.register(cls)
    return codec.schema()


class TestExtraction:
    def test_registered_types_only_with_fields_and_defaults(self):
        schema = _schema()
        assert sorted(schema["records"]) == ["OpenReq", "SeekReq"]
        assert sorted(schema["enums"]) == ["Color"]
        open_req = schema["records"]["OpenReq"]
        # ClassVar is not a field; defaults are recorded as source text.
        assert open_req["fields"] == [
            {"name": "path", "type": "str", "default": None},
            {"name": "mode", "type": "str", "default": "'r'"},
        ]
        assert open_req["kind"] == "dataclass"
        assert schema["records"]["SeekReq"]["kind"] == "namedtuple"
        assert schema["records"]["SeekReq"]["fields"][1] == {
            "name": "offset", "type": "int", "default": "0",
        }
        assert schema["enums"]["Color"] == {
            "number": 0, "module": MODULE,
            "members": {"RED": "'r'", "BLUE": "'b'"},
        }
        # Records and enums share one numbering, in registration order.
        assert open_req["number"] == 1
        assert schema["records"]["SeekReq"]["number"] == 2
        # The module is a path; line numbers are kept out of the schema (no
        # churn on unrelated edits).
        assert open_req["module"] == MODULE
        assert set(open_req) == {"number", "module", "kind", "fields"}

    def test_field_call_without_default_is_not_a_default(self):
        @dataclass(frozen=True)
        class OpenReq:
            path: str
            mode: str = field(repr=False)

        fields = _schema(OpenReq)["records"]["OpenReq"]["fields"]
        assert fields[1]["default"] is None

    def test_field_call_with_default_factory_is_a_default(self):
        @dataclass(frozen=True)
        class OpenReq:
            path: str
            mode: dict = field(default_factory=dict)

        fields = _schema(OpenReq)["records"]["OpenReq"]["fields"]
        assert fields[1]["default"] == "field(default_factory=dict)"

    def test_enum_default_renders_as_type_and_member(self):
        @dataclass(frozen=True)
        class OpenReq:
            path: str
            mode: Color = Color.RED

        fields = _schema(OpenReq)["records"]["OpenReq"]["fields"]
        assert fields[1] == {"name": "mode", "type": "Color", "default": "Color.RED"}

    def test_non_wire_modules_are_ignored(self):
        # Only what a codec registers is schema: an empty registry has
        # none, and an unregistered record never shows up.
        assert Codec().schema()["records"] == {}
        assert "NotOnTheWire" not in _schema()["records"]

    def test_dataclass_subclass_is_locked_with_inherited_fields(self):
        @dataclass(frozen=True)
        class ReopenReq(OpenReq):
            flags: int = 0

        record = _schema(ReopenReq)["records"]["ReopenReq"]
        assert [f["name"] for f in record["fields"]] == ["path", "mode", "flags"]
        assert record["fields"][1]["default"] == "'r'"
