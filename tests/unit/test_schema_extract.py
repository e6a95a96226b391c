"""The registry-derived schema and R7's deltas, on golden fixtures.

A base set of records (plus evolved variants of them) registered on a
fresh :class:`~repro.net.codec.Codec` exercises every R7 delta kind —
appended, removed, reordered, renamed or retyped field, changed default,
record and enum member added/removed/renumbered — plus the lockfile
round-trip/stability property (derive -> write -> load -> diff == empty).
A group runs one wire schema, so every delta is a coordinated upgrade
("breaking"): none is wire-compatible, and each is listed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

from repro.analysis import check_files
from repro.analysis.schema import (
    diff_schemas,
    load_lockfile,
    render_deltas,
    rule_r7,
    write_lockfile,
)
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
        if issubclass(cls, enum.Enum):
            codec.register_enum(cls)
        else:
            codec.register(cls)
    return codec.schema()


def _deltas(*evolved: type):
    return diff_schemas(_schema(), _schema(*evolved))


def _only(deltas, kind):
    hits = [d for d in deltas if d.kind == kind]
    assert hits, f"no {kind} delta in {deltas}"
    return hits


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
            "module": MODULE, "members": {"RED": "'r'", "BLUE": "'b'"},
        }
        # The module is a path; line numbers are kept out of the schema (no
        # churn on unrelated edits).
        assert open_req["module"] == MODULE
        assert set(open_req) == {"module", "kind", "fields"}

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


class TestDeltaClassification:
    def test_identical_schemas_have_no_deltas(self):
        assert _deltas() == []

    def test_defaulted_trailing_append_is_listed_too(self):
        @dataclass(frozen=True)
        class OpenReq:
            path: str
            mode: str = "r"
            flags: int = 0

        (delta,) = _only(_deltas(OpenReq), "fields-changed")
        assert delta.name == "OpenReq"
        assert delta.detail == (
            "(path: str, mode: str = 'r') -> "
            "(path: str, mode: str = 'r', flags: int = 0)")

    def test_undefaulted_trailing_append_is_breaking(self):
        @dataclass(frozen=True)
        class OpenReq:
            path: str
            mode: str = "r"
            flags: int = field(kw_only=True)

        (delta,) = _only(_deltas(OpenReq), "fields-changed")
        assert "flags: int)" in delta.detail

    def test_removed_undefaulted_trailing_field_is_breaking(self):
        class LockedSeekReq(NamedTuple):
            fd: int
            offset: int

        class SeekReq(NamedTuple):
            fd: int

        LockedSeekReq.__name__ = "SeekReq"
        deltas = diff_schemas(_schema(LockedSeekReq), _schema(SeekReq))
        (delta,) = _only(deltas, "fields-changed")
        assert delta.name == "SeekReq"

    def test_reorder_is_breaking(self):
        @dataclass(frozen=True)
        class OpenReq:
            mode: str
            path: str = "p"

        _only(_deltas(OpenReq), "fields-changed")

    def test_rename_is_breaking(self):
        @dataclass(frozen=True)
        class OpenReq:
            file_path: str
            mode: str = "r"

        (delta,) = _only(_deltas(OpenReq), "fields-changed")
        assert "(path: str" in delta.detail and "(file_path: str" in delta.detail

    def test_type_change_is_breaking(self):
        class SeekReq(NamedTuple):
            fd: str
            offset: int = 0

        (delta,) = _only(_deltas(SeekReq), "field-type-changed")
        assert delta.name == "SeekReq"
        assert delta.detail == "field 'fd' type 'int' -> 'str'"

    def test_default_change_is_listed(self):
        @dataclass(frozen=True)
        class OpenReq:
            path: str
            mode: str = "rw"

        (delta,) = _only(_deltas(OpenReq), "field-default-changed")
        assert delta.detail == "field 'mode' default \"'r'\" -> \"'rw'\""

    def test_record_added_and_removed_are_listed(self):
        @dataclass(frozen=True)
        class CloseReq:
            fd: int

        _only(_deltas(CloseReq), "record-added")
        _only(diff_schemas(_schema(CloseReq), _schema()), "record-removed")

    def test_enum_member_add_remove_and_value_change(self):
        class Added(enum.Enum):
            RED = "r"
            BLUE = "b"
            GREEN = "g"

        class Removed(enum.Enum):
            RED = "r"

        class Changed(enum.Enum):
            RED = "r"
            BLUE = "x"

        for evolved in (Added, Removed, Changed):
            evolved.__name__ = "Color"
        _only(_deltas(Added), "enum-member-added")
        _only(_deltas(Removed), "enum-member-removed")
        _only(_deltas(Changed), "enum-member-value-changed")

    def test_render_lists_every_delta_in_name_order(self):
        @dataclass(frozen=True)
        class OpenReq:
            mode: str
            path: str = "p"

        @dataclass(frozen=True)
        class CloseReq:
            fd: int

        deltas = _deltas(OpenReq, CloseReq)
        assert [(d.name, d.kind) for d in deltas] == [
            ("CloseReq", "record-added"), ("OpenReq", "fields-changed")]
        text = render_deltas(deltas)
        assert text.splitlines() == [d.render() for d in deltas]
        assert text.splitlines()[0].startswith("CloseReq (unit/test_schema_extract.py)")
        jsonl = render_deltas(deltas, jsonl=True)
        assert len(jsonl.splitlines()) == 2 and '"kind": "record-added"' in jsonl


class TestLockfileRoundTrip:
    def test_extract_write_load_diff_is_stable(self, tmp_path):
        schema = _schema()
        path = tmp_path / "WIRE_SCHEMA.lock"
        write_lockfile(schema, path)
        loaded = load_lockfile(path)
        assert loaded == schema
        assert diff_schemas(loaded, schema) == []
        # Writing the loaded schema again is byte-identical (stable).
        first = path.read_bytes()
        write_lockfile(loaded, path)
        assert path.read_bytes() == first

    def test_missing_lockfile_is_none(self, tmp_path):
        assert load_lockfile(tmp_path / "absent.lock") is None


class TestRuleR7:
    def test_clean_when_lock_matches(self):
        assert rule_r7(_schema(), _schema(), {}) == []

    def test_missing_lockfile_is_a_finding(self):
        findings = rule_r7(_schema(), None, {})
        assert len(findings) == 1
        assert findings[0].rule == "R7"
        assert "repro schema update" in findings[0].message

    def test_no_wire_modules_no_findings_even_without_lock(self):
        assert rule_r7(Codec().schema(), None, {}) == []

    def test_findings_anchor_to_the_drifted_class(self):
        @dataclass(frozen=True)
        class OpenReq:
            file_path: str
            mode: str = "r"

        source = "import x\n\n\n@dataclass\nclass OpenReq:\n    file_path: str\n"
        (finding,) = rule_r7(_schema(OpenReq), _schema(), {MODULE: source})
        assert (finding.path, finding.line) == (MODULE, 5)
        assert "fields-changed" in finding.message
        assert "repro schema update" in finding.message

    def test_check_files_runs_r7_only_with_lock_context(self):
        # R7 reads a registry, not sources: the snippet-level API never
        # runs it, only run_lint (which has a package and its lockfile).
        source = "from dataclasses import dataclass\n\nclass Ping:\n    n: int\n"
        assert check_files({"pvfs/wire.py": source}, rules=["R7"]) == []
