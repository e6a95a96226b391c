"""R7: the wire schema and the committed lockfile.

A group runs one wire schema (PROTOCOLS.md §11): a joiner presents the
digest of its registry and a member refuses one that differs, so a frame
carries no version information. What a reviewer needs is to see every
change to that schema, and this module shows it:

* The schema is read from the codec's registry, which already holds every
  fact: :meth:`~repro.net.codec.Codec.schema` renders per-record field
  names, order, type annotations and defaults, and enum member values.
  :func:`registry_schema` imports every module of the package first, so
  every wire module has registered, and runs
  :meth:`~repro.net.codec.Codec.self_check` (the registration contract).
  ``repro schema extract`` prints it.
* :func:`derive` runs ``python -m repro schema extract`` in a fresh
  interpreter with the package root's parent on ``PYTHONPATH``: one path
  for the installed package and a fixture copy alike, and one that never
  sees a record the calling process registered.
* The schema is committed as ``src/repro/WIRE_SCHEMA.lock`` (JSON, sorted
  keys, no line numbers — so unrelated edits never churn it).
* Rule **R7**: the lock equals the registry. :func:`diff_schemas` lists
  every delta between them — a record or enum added or removed or moved, a
  field list changed, a field's annotation or default changed, an enum
  member added, removed or renumbered — and each is a finding.

Every delta is a coordinated upgrade: the heads of a group change schema
together. ``repro lint`` fails until the lockfile is regenerated with
``repro schema update``, so each wire change is a reviewed event in the
diff of the lockfile itself; ``repro schema diff`` lists the deltas and
exits 1 on any of them.
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


@dataclass(frozen=True)
class SchemaDelta:
    """One difference between the lockfile and the working tree."""

    kind: str      # e.g. "fields-changed", "record-added"
    name: str      # record/enum wire name
    module: str    # repro-relative wire module path
    detail: str

    def render(self) -> str:
        return f"{self.name} ({self.module}): {self.kind} — {self.detail}"

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
# diff
# ---------------------------------------------------------------------------


def _field_text(field: dict) -> str:
    default = field.get("default")
    text = f"{field['name']}: {field.get('type')}"
    return text if default is None else f"{text} = {default}"


def _diff_record(name: str, old: dict, new: dict) -> list[SchemaDelta]:
    deltas: list[SchemaDelta] = []
    module = new["module"]
    if old.get("module") != new.get("module"):
        deltas.append(SchemaDelta(
            "record-moved", name, module, f"moved from {old.get('module')}"))
    if old.get("kind") != new.get("kind"):
        deltas.append(SchemaDelta(
            "record-kind-changed", name, module,
            f"{old.get('kind')} -> {new.get('kind')}"))
    old_fields, new_fields = old["fields"], new["fields"]
    if [f["name"] for f in old_fields] != [f["name"] for f in new_fields]:
        deltas.append(SchemaDelta(
            "fields-changed", name, module,
            f"({', '.join(map(_field_text, old_fields))}) -> "
            f"({', '.join(map(_field_text, new_fields))})"))
        return deltas
    for old_f, new_f in zip(old_fields, new_fields):
        for key in ("type", "default"):
            if old_f.get(key) != new_f.get(key):
                deltas.append(SchemaDelta(
                    f"field-{key}-changed", name, module,
                    f"field {new_f['name']!r} {key} {old_f.get(key)!r} -> "
                    f"{new_f.get(key)!r}"))
    return deltas


def _diff_enum(name: str, old: dict, new: dict) -> list[SchemaDelta]:
    deltas: list[SchemaDelta] = []
    module = new["module"]
    if old.get("module") != new.get("module"):
        deltas.append(SchemaDelta(
            "enum-moved", name, module, f"moved from {old.get('module')}"))
    old_members, new_members = old["members"], new["members"]
    for member in sorted(old_members.keys() | new_members.keys()):
        if member not in old_members:
            deltas.append(SchemaDelta(
                "enum-member-added", name, module,
                f"new member {member} = {new_members[member]}"))
        elif member not in new_members:
            deltas.append(SchemaDelta(
                "enum-member-removed", name, module, f"member {member} removed"))
        elif old_members[member] != new_members[member]:
            deltas.append(SchemaDelta(
                "enum-member-value-changed", name, module,
                f"member {member} value {old_members[member]} -> "
                f"{new_members[member]}"))
    return deltas


def _diff_table(
    kind: str, old_table: dict, new_table: dict, diff_entry
) -> list[SchemaDelta]:
    deltas: list[SchemaDelta] = []
    for name in sorted(old_table.keys() | new_table.keys()):
        old, new = old_table.get(name), new_table.get(name)
        if old is None:
            deltas.append(SchemaDelta(
                f"{kind}-added", name, new["module"], f"new wire {kind}"))
        elif new is None:
            deltas.append(SchemaDelta(
                f"{kind}-removed", name, old["module"], f"wire {kind} removed"))
        else:
            deltas.extend(diff_entry(name, old, new))
    return deltas


def diff_schemas(locked: dict, current: dict) -> list[SchemaDelta]:
    """Every delta from *locked* (the committed schema) to *current* (the
    working tree's derived schema), records then enums, each in name order.
    Empty list = lockfile is up to date."""
    deltas: list[SchemaDelta] = []
    if locked.get("version") != current.get("version"):
        deltas.append(SchemaDelta(
            "schema-version-changed", "<schema>", LOCKFILE_NAME,
            f"lockfile version {locked.get('version')} vs extractor "
            f"version {current.get('version')} — regenerate the lockfile",
        ))
    deltas += _diff_table("record", locked.get("records", {}),
                          current.get("records", {}), _diff_record)
    deltas += _diff_table("enum", locked.get("enums", {}),
                          current.get("enums", {}), _diff_enum)
    return deltas


def render_deltas(deltas: list[SchemaDelta], *, jsonl: bool = False) -> str:
    """Human-readable (or JSONL) rendering, one delta a line."""
    if jsonl:
        return "\n".join(json.dumps(d.to_json(), sort_keys=True) for d in deltas)
    return "\n".join(d.render() for d in deltas)


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
    delta is a finding — the lockfile must track the working tree exactly."""
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
            f"wire schema drift {delta.kind}: "
            f"{delta.name} — {delta.detail}; review the change and run "
            "`repro schema update` to accept it",
        )
        for delta in diff_schemas(schema_lock, current)
    ]
