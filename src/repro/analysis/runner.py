"""Run the analysis rules over sources, applying ignore directives."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.findings import Finding
from repro.analysis.ignores import IgnoreDirective, parse_ignores
from repro.analysis.protocol import rule_r4
from repro.analysis.rules import PER_FILE_RULES
from repro.analysis.schema import LOCKFILE_NAME, derive, load_lockfile, rule_r7
from repro.util.errors import ReproError

__all__ = [
    "ALL_RULES", "check_files", "check_source", "list_ignores", "run_lint",
]

ALL_RULES = ("R1", "R2", "R3", "R4", "R5", "R7")


def _default_root() -> Path:
    # The repro package root (this file lives in repro/analysis/).
    return Path(__file__).resolve().parent.parent


def check_source(
    source: str, path: str = "snippet.py", rules=None
) -> list[Finding]:
    """Lint one source string with the per-file rules (R1/R2/R3/R5).

    *path* is a repro-relative path and drives rule scoping: pass
    ``"gcs/x.py"`` to put the snippet inside R3's protocol layers. R4 is
    cross-file; use :func:`check_files` for it.
    """
    return check_files({path: source}, rules=rules)


def check_files(files: dict[str, str], rules=None) -> list[Finding]:
    """Lint *files* (repro-relative path -> source) with the given rules.

    R7 reads a package's registry, not sources, so only :func:`run_lint`
    runs it."""
    active = frozenset(rules if rules is not None else ALL_RULES)
    full_run = active >= frozenset(ALL_RULES)
    findings: list[Finding] = []
    trees: dict[str, ast.Module] = {}
    ignore_sets = {}
    for path in sorted(files):
        source = files[path]
        try:
            trees[path] = ast.parse(source, filename=path)
        except SyntaxError as exc:
            findings.append(
                Finding("R0", path, exc.lineno or 0, exc.offset or 0,
                        f"syntax error: {exc.msg}")
            )
            continue
        ignore_sets[path] = parse_ignores(source, path)

    raw: list[Finding] = []
    for path, tree in sorted(trees.items()):
        for rule_name, (applies, rule) in PER_FILE_RULES.items():
            if rule_name in active and applies(path):
                raw.extend(rule(tree, path))
    if "R4" in active:
        raw.extend(rule_r4(trees))

    for finding in raw:
        ignores = ignore_sets.get(finding.path)
        if ignores is not None and ignores.suppresses(finding.rule, finding.line):
            continue
        findings.append(finding)
    for path, ignores in sorted(ignore_sets.items()):
        findings.extend(ignores.problems)
        if full_run:
            findings.extend(ignores.unused(active, path))
    findings.sort(key=_location)
    return findings


def _location(finding: Finding) -> tuple:
    return (finding.path, finding.line, finding.col, finding.rule)


def _tree_sources(base: Path) -> dict[str, str]:
    files: dict[str, str] = {}
    for path in sorted(base.rglob("*.py")):
        rel = path.relative_to(base).as_posix()
        if "__pycache__" in rel:
            continue
        files[rel] = path.read_text(encoding="utf-8")
    return files


def run_lint(root: str | Path | None = None, rules=None) -> list[Finding]:
    """Lint every ``.py`` file under *root* (default: the repro package).

    R7 diffs the schema derived from the registry of the package at *root*
    against ``<root>/WIRE_SCHEMA.lock``; a missing lockfile, or a registry
    that cannot be derived, is itself a finding. An R7 finding has no
    in-line exemption: a wire change is accepted with ``repro schema
    update``."""
    base = Path(root) if root is not None else _default_root()
    files = _tree_sources(base)
    findings = check_files(files, rules=rules)
    if rules is None or "R7" in rules:
        try:
            current = derive(base)
        except ReproError as exc:
            findings.append(Finding("R7", LOCKFILE_NAME, 1, 0, str(exc)))
        else:
            lock = load_lockfile(base / LOCKFILE_NAME)
            findings.extend(rule_r7(current, lock, files))
        findings.sort(key=_location)
    return findings


def list_ignores(
    root: str | Path | None = None,
) -> list[tuple[str, IgnoreDirective]]:
    """Every ``# repro-lint: ignore[...]`` directive under *root*, as
    ``(repro-relative path, directive)`` pairs in file/line order — the
    audit surface behind ``repro lint --ignores``."""
    base = Path(root) if root is not None else _default_root()
    out: list[tuple[str, IgnoreDirective]] = []
    for rel, source in sorted(_tree_sources(base).items()):
        for directive in parse_ignores(source, rel).directives:
            out.append((rel, directive))
    return out
