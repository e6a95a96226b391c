"""R7: the wire schema, the committed lockfile, and delta classes.

The codec (:mod:`repro.net.codec`) makes every wire record self-describing
*per frame*, but nothing pinned the **schema itself** — a field rename or
reorder silently changed what old traces and mixed-version peers decode.
This module closes that gap:

* The schema is read from the codec's registry, which already holds every
  fact: :meth:`~repro.net.codec.Codec.schema` renders per-record field
  names, order, type annotations and defaults, enum member values, and the
  16-bit :func:`~repro.net.codec.schema_fingerprint` the codec stamps on
  frames. :func:`registry_schema` imports every module of the package
  first, so every wire module has registered, and runs
  :meth:`~repro.net.codec.Codec.self_check` (the registration contract).
  ``repro schema extract`` prints it.
* :func:`derive` runs ``python -m repro schema extract`` in a fresh
  interpreter with the package root's parent on ``PYTHONPATH``: one path
  for the installed package and a fixture copy alike, and one that never
  sees a record the calling process registered.
* The schema is committed as ``src/repro/WIRE_SCHEMA.lock`` (JSON, sorted
  keys, no line numbers — so unrelated edits never churn it).
* Rule **R7** diffs the derived schema against the lockfile and reports
  every delta as a finding, classified by :func:`diff_schemas`:

  ==================  ======================================================
  severity            meaning
  ==================  ======================================================
  *compatible*        wire-compatible: new record/enum, new enum member,
                      new **defaulted trailing** field — old and new nodes
                      interoperate in tolerant decode.
  *decode-compatible* tolerated by decode but semantically visible: a
                      trailing field deprecated (dropped) while its old
                      default is still recorded, or a default's value
                      changed (fills differ across versions).
  *breaking*          removed/renamed/reordered field, annotation change,
                      removed enum member or changed member value —
                      positional decode cannot align, or old frames
                      change meaning.
  ==================  ======================================================

Any drift fails ``repro lint`` until the lockfile is regenerated with
``repro schema update`` — so every wire-schema change is a reviewed,
classified event in the diff of the lockfile itself. ``repro schema diff``
renders the classification (exit 1 on breaking deltas) for CI and review.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import repro
from repro.analysis.findings import Finding
from repro.net.codec import WIRE
from repro.util.errors import ReproError

__all__ = [
    "BREAKING",
    "COMPATIBLE",
    "DECODE_COMPATIBLE",
    "LOCKFILE_NAME",
    "SchemaDelta",
    "derive",
    "diff_schemas",
    "load_lockfile",
    "lockfile_path",
    "registry_schema",
    "render_deltas",
    "rule_r7",
    "write_lockfile",
]

LOCKFILE_NAME = "WIRE_SCHEMA.lock"

COMPATIBLE = "compatible"
DECODE_COMPATIBLE = "decode-compatible"
BREAKING = "breaking"


@dataclass(frozen=True)
class SchemaDelta:
    """One classified difference between the lockfile and the working tree."""

    severity: str  # COMPATIBLE | DECODE_COMPATIBLE | BREAKING
    kind: str      # e.g. "field-appended", "fields-reordered"
    name: str      # record/enum wire name
    module: str    # repro-relative wire module path
    detail: str

    def render(self) -> str:
        return (
            f"[{self.severity}] {self.name} ({self.module}): "
            f"{self.kind} — {self.detail}"
        )

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# derivation
# ---------------------------------------------------------------------------


def _package_root() -> Path:
    # The repro package root (this file lives in repro/analysis/).
    return Path(__file__).resolve().parent.parent


def registry_schema() -> dict:
    """The schema of every record this interpreter's package registers:
    imports each of its modules (all but ``__main__``), audits the registry
    and renders it."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith(".__main__"):
            importlib.import_module(module.name)
    WIRE.self_check()
    return WIRE.schema()


#: Digest of a package's sources -> what ``repro schema extract`` printed
#: for it (the schema is a function of the sources alone).
_DERIVED: dict[str, str] = {}


def derive(root: str | Path | None = None) -> dict:
    """The schema ``python -m repro schema extract`` prints for the package
    at *root* (default: this one), run in a fresh interpreter with *root*'s
    parent on ``PYTHONPATH``, once per distinct set of sources. Raises
    :class:`ReproError` carrying the interpreter's last error line when the
    registry cannot be derived — a set-typed field, a wire-name collision
    or an exported record its module never registered."""
    base = (Path(root) if root is not None else _package_root()).resolve()
    digest = hashlib.sha256()
    for path in sorted(base.rglob("*.py")):
        digest.update(path.relative_to(base).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    key = digest.hexdigest()
    if key not in _DERIVED:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "schema", "extract"],
            cwd=base.parent, env={**os.environ, "PYTHONPATH": str(base.parent)},
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            error = proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"]
            raise ReproError(f"`repro schema extract` failed: {error[-1]}")
        _DERIVED[key] = proc.stdout
    return json.loads(_DERIVED[key])


# ---------------------------------------------------------------------------
# lockfile
# ---------------------------------------------------------------------------


def lockfile_path(root: str | Path | None = None) -> Path:
    base = Path(root) if root is not None else _package_root()
    return base / LOCKFILE_NAME


def load_lockfile(path: str | Path) -> dict | None:
    """The parsed lockfile, or ``None`` if it does not exist yet."""
    path = Path(path)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def write_lockfile(schema: dict, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(schema, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# diff + classification
# ---------------------------------------------------------------------------


def _diff_common_fields(
    name: str, module: str, old_fields: list[dict], new_fields: list[dict]
) -> list[SchemaDelta]:
    """Deltas between same-named, same-position field runs: annotation and
    default changes."""
    deltas: list[SchemaDelta] = []
    for old_f, new_f in zip(old_fields, new_fields):
        field_name = new_f["name"]
        if old_f.get("type") != new_f.get("type"):
            deltas.append(SchemaDelta(
                BREAKING, "field-type-changed", name, module,
                f"field {field_name!r} annotation changed "
                f"{old_f.get('type')!r} -> {new_f.get('type')!r} — old "
                "frames decode the old payload shape into the new "
                "expectation",
            ))
        old_default, new_default = old_f.get("default"), new_f.get("default")
        if old_default == new_default:
            continue
        if new_default is None:
            deltas.append(SchemaDelta(
                BREAKING, "field-default-removed", name, module,
                f"field {field_name!r} lost its default {old_default!r} — "
                "frames from senders that predate the field can no longer "
                "be filled",
            ))
        elif old_default is None:
            deltas.append(SchemaDelta(
                COMPATIBLE, "field-default-added", name, module,
                f"field {field_name!r} gained default {new_default}",
            ))
        else:
            deltas.append(SchemaDelta(
                DECODE_COMPATIBLE, "field-default-changed", name, module,
                f"field {field_name!r} default changed {old_default!r} -> "
                f"{new_default!r} — fills for old frames differ across "
                "versions",
            ))
    return deltas


def _diff_record(name: str, old: dict, new: dict) -> list[SchemaDelta]:
    deltas: list[SchemaDelta] = []
    module = new["module"]
    if old.get("module") != new.get("module"):
        deltas.append(SchemaDelta(
            COMPATIBLE, "record-moved", name, module,
            f"moved from {old.get('module')} (wire frames are unchanged)",
        ))
    if old.get("kind") != new.get("kind"):
        deltas.append(SchemaDelta(
            COMPATIBLE, "record-kind-changed", name, module,
            f"{old.get('kind')} -> {new.get('kind')} (wire frames are "
            "unchanged)",
        ))
    old_fields, new_fields = old["fields"], new["fields"]
    old_names = [f["name"] for f in old_fields]
    new_names = [f["name"] for f in new_fields]
    if old_names == new_names:
        deltas.extend(_diff_common_fields(name, module, old_fields, new_fields))
    elif (
        len(new_names) > len(old_names)
        and new_names[: len(old_names)] == old_names
    ):
        for field in new_fields[len(old_names):]:
            if field["default"] is None:
                deltas.append(SchemaDelta(
                    BREAKING, "field-appended-without-default", name, module,
                    f"new trailing field {field['name']!r} has no default — "
                    "an old sender's frames cannot be filled",
                ))
            else:
                deltas.append(SchemaDelta(
                    COMPATIBLE, "field-appended", name, module,
                    f"new defaulted trailing field {field['name']!r} "
                    f"(default {field['default']})",
                ))
        deltas.extend(_diff_common_fields(
            name, module, old_fields, new_fields[: len(old_fields)]
        ))
    elif (
        len(old_names) > len(new_names)
        and old_names[: len(new_names)] == new_names
    ):
        for field in old_fields[len(new_names):]:
            if field["default"] is None:
                deltas.append(SchemaDelta(
                    BREAKING, "field-removed", name, module,
                    f"trailing field {field['name']!r} removed and the old "
                    "declaration had no default — old receivers cannot "
                    "fill it",
                ))
            else:
                deltas.append(SchemaDelta(
                    DECODE_COMPATIBLE, "field-deprecated", name, module,
                    f"trailing field {field['name']!r} dropped; old "
                    "receivers fill it from its recorded default "
                    f"{field['default']}",
                ))
        deltas.extend(_diff_common_fields(
            name, module, old_fields[: len(new_fields)], new_fields
        ))
    elif sorted(old_names) == sorted(new_names):
        deltas.append(SchemaDelta(
            BREAKING, "fields-reordered", name, module,
            f"field order changed {old_names} -> {new_names} — positional "
            "decode cannot align",
        ))
    elif len(old_names) == len(new_names):
        renamed = ", ".join(
            f"{o!r} -> {n!r}"
            for o, n in zip(old_names, new_names)
            if o != n
        )
        deltas.append(SchemaDelta(
            BREAKING, "field-renamed", name, module,
            f"renamed {renamed} — positional decode would silently rebind "
            "the payload",
        ))
    else:
        removed = sorted(set(old_names) - set(new_names))
        added = sorted(set(new_names) - set(old_names))
        deltas.append(SchemaDelta(
            BREAKING, "fields-changed", name, module,
            f"non-trailing field change (removed {removed}, added {added}) "
            "— only trailing appends/deprecations are evolvable",
        ))
    return deltas


def _diff_enum(name: str, old: dict, new: dict) -> list[SchemaDelta]:
    deltas: list[SchemaDelta] = []
    module = new["module"]
    if old.get("module") != new.get("module"):
        deltas.append(SchemaDelta(
            COMPATIBLE, "enum-moved", name, module,
            f"moved from {old.get('module')} (wire frames are unchanged)",
        ))
    old_members, new_members = old["members"], new["members"]
    for member in sorted(old_members.keys() | new_members.keys()):
        if member not in old_members:
            deltas.append(SchemaDelta(
                COMPATIBLE, "enum-member-added", name, module,
                f"new member {member} = {new_members[member]}",
            ))
        elif member not in new_members:
            deltas.append(SchemaDelta(
                BREAKING, "enum-member-removed", name, module,
                f"member {member} removed — frames carrying its value no "
                "longer decode",
            ))
        elif old_members[member] != new_members[member]:
            deltas.append(SchemaDelta(
                BREAKING, "enum-member-value-changed", name, module,
                f"member {member} value changed {old_members[member]} -> "
                f"{new_members[member]} — old frames decode to the wrong "
                "member or fail",
            ))
    return deltas


def diff_schemas(locked: dict, current: dict) -> list[SchemaDelta]:
    """Classified deltas from *locked* (the committed schema) to *current*
    (the working tree's derived schema). Empty list = lockfile is up to date."""
    deltas: list[SchemaDelta] = []
    if locked.get("version") != current.get("version"):
        deltas.append(SchemaDelta(
            BREAKING, "schema-version-changed", "<schema>", LOCKFILE_NAME,
            f"lockfile version {locked.get('version')} vs extractor "
            f"version {current.get('version')} — regenerate the lockfile",
        ))
    old_records = locked.get("records", {})
    new_records = current.get("records", {})
    for name in sorted(old_records.keys() | new_records.keys()):
        old, new = old_records.get(name), new_records.get(name)
        if old is None:
            deltas.append(SchemaDelta(
                COMPATIBLE, "record-added", name, new["module"],
                f"new wire record with {len(new['fields'])} fields",
            ))
        elif new is None:
            deltas.append(SchemaDelta(
                BREAKING, "record-removed", name, old["module"],
                "frames of this record can no longer be decoded",
            ))
        else:
            deltas.extend(_diff_record(name, old, new))
    old_enums = locked.get("enums", {})
    new_enums = current.get("enums", {})
    for name in sorted(old_enums.keys() | new_enums.keys()):
        old, new = old_enums.get(name), new_enums.get(name)
        if old is None:
            deltas.append(SchemaDelta(
                COMPATIBLE, "enum-added", name, new["module"],
                f"new wire enum with {len(new['members'])} members",
            ))
        elif new is None:
            deltas.append(SchemaDelta(
                BREAKING, "enum-removed", name, old["module"],
                "frames carrying its members can no longer be decoded",
            ))
        else:
            deltas.extend(_diff_enum(name, old, new))
    return deltas


_SEVERITY_ORDER = {BREAKING: 0, DECODE_COMPATIBLE: 1, COMPATIBLE: 2}


def render_deltas(deltas: list[SchemaDelta], *, jsonl: bool = False) -> str:
    """Human-readable (or JSONL) rendering, breaking deltas first."""
    ordered = sorted(
        deltas, key=lambda d: (_SEVERITY_ORDER[d.severity], d.name, d.kind)
    )
    if jsonl:
        return "\n".join(
            json.dumps(d.to_json(), sort_keys=True) for d in ordered
        )
    return "\n".join(d.render() for d in ordered)


# ---------------------------------------------------------------------------
# rule R7
# ---------------------------------------------------------------------------


def _class_line(source: str, name: str) -> int:
    """The line of ``class <name>`` in *source* (1 if it has none: the
    record was removed)."""
    match = re.search(rf"^class {name}\b", source, re.MULTILINE)
    return source.count("\n", 0, match.start()) + 1 if match else 1


def rule_r7(
    current: dict, schema_lock: dict | None, files: dict[str, str]
) -> list[Finding]:
    """*current* is the derived schema, *schema_lock* the parsed lockfile
    (``None`` = missing), *files* the linted sources (repro-relative path ->
    text) a finding is anchored in, at its record's ``class`` line. Every
    delta is a finding — the lockfile must track the working tree exactly,
    or later diffs would classify against a stale base."""
    if not current["records"] and not current["enums"]:
        return []  # nothing registers a wire record
    if schema_lock is None:
        return [Finding(
            "R7", LOCKFILE_NAME, 1, 0,
            f"no {LOCKFILE_NAME} found — generate it with "
            "`repro schema update` and commit it",
        )]
    return [
        Finding(
            "R7", delta.module,
            _class_line(files.get(delta.module, ""), delta.name), 0,
            f"wire schema drift [{delta.severity}] {delta.kind}: "
            f"{delta.name} — {delta.detail}; review the change and run "
            "`repro schema update` to accept it",
        )
        for delta in diff_schemas(schema_lock, current)
    ]
