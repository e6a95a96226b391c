"""Run the analysis rules over sources, applying ignore directives."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.findings import Finding
from repro.analysis.ignores import IgnoreDirective, parse_ignores
from repro.analysis.protocol import rule_r4
from repro.analysis.rules import PER_FILE_RULES

__all__ = [
    "ALL_RULES", "check_files", "list_ignores", "run_lint",
]

ALL_RULES = ("R1", "R2", "R3", "R4", "R5")


def check_files(files: dict[str, str], rules=None) -> list[Finding]:
    """Lint *files* (repro-relative path -> source) with the given rules."""
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


def _package_sources() -> dict[str, str]:
    """Every ``.py`` file of the repro package: repro-relative path ->
    source (this file lives in repro/analysis/)."""
    base = Path(__file__).resolve().parent.parent
    files: dict[str, str] = {}
    for path in sorted(base.rglob("*.py")):
        rel = path.relative_to(base).as_posix()
        if "__pycache__" in rel:
            continue
        files[rel] = path.read_text(encoding="utf-8")
    return files


def run_lint(rules=None) -> list[Finding]:
    """Lint every ``.py`` file of the repro package."""
    return check_files(_package_sources(), rules=rules)


def list_ignores() -> list[tuple[str, IgnoreDirective]]:
    """Every ``# repro-lint: ignore[...]`` directive of the repro package, as
    ``(repro-relative path, directive)`` pairs in file/line order — the
    audit surface behind ``repro lint --ignores``."""
    out: list[tuple[str, IgnoreDirective]] = []
    for rel, source in sorted(_package_sources().items()):
        for directive in parse_ignores(source, rel).directives:
            out.append((rel, directive))
    return out
