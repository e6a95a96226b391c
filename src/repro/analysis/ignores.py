"""In-line exemption directives: ``# repro-lint: ignore[R3] <reason>``.

A directive on a code line exempts that line; a directive on a line of its
own exempts the next line (for statements too long to share a line with the
reason text). Directives are **rule-scoped** — ``ignore[R1]`` never
suppresses an R3 finding — and the reason is mandatory: an exemption that
doesn't say *why* is indistinguishable from a silenced bug.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from repro.analysis.findings import Finding

__all__ = ["IgnoreDirective", "IgnoreSet", "parse_ignores"]

_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*ignore\[(?P<rules>[^\]]*)\]\s*(?P<reason>.*)$"
)
_RULE_NAME = re.compile(r"^R[0-9]$")


@dataclass
class IgnoreDirective:
    """One parsed directive."""

    line: int                 # line the directive comment sits on
    applies_to: int           # line whose findings it suppresses
    rules: tuple[str, ...]
    reason: str
    used: bool = field(default=False, compare=False)


@dataclass
class IgnoreSet:
    """All directives of one file, plus directive-syntax findings (R0)."""

    directives: list[IgnoreDirective]
    problems: list[Finding]

    def suppresses(self, rule: str, line: int) -> bool:
        hit = False
        for directive in self.directives:
            if directive.applies_to == line and rule in directive.rules:
                directive.used = True
                hit = True
        return hit

    def unused(self, active_rules: frozenset[str], path: str) -> list[Finding]:
        """Directives that suppressed nothing.

        Only directives whose every rule was active this run are judged —
        running ``repro lint --rule R1`` must not flag R3 ignores as unused.
        """
        findings = []
        for directive in self.directives:
            if directive.used:
                continue
            if not set(directive.rules) <= active_rules:
                continue
            findings.append(
                Finding(
                    "R0",
                    path,
                    directive.line,
                    0,
                    "unused ignore directive "
                    f"[{', '.join(directive.rules)}] — it suppresses nothing; "
                    "remove it or fix the rule list",
                )
            )
        return findings


def parse_ignores(source: str, path: str) -> IgnoreSet:
    directives: list[IgnoreDirective] = []
    problems: list[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError):
        return IgnoreSet([], [])
    # Lines that hold code (so a directive on its own line targets the next
    # code line, not just line+1 — blank lines/comments may intervene).
    code_lines = {
        tok.start[0]
        for tok in tokens
        if tok.type
        not in (
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
        )
    }
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _DIRECTIVE.search(tok.string)
        if match is None:
            if "repro-lint" in tok.string:
                problems.append(
                    Finding(
                        "R0",
                        path,
                        tok.start[0],
                        tok.start[1],
                        "malformed repro-lint directive: expected "
                        "'# repro-lint: ignore[RN] <reason>'",
                    )
                )
            continue
        line = tok.start[0]
        rules = tuple(
            r.strip() for r in match.group("rules").split(",") if r.strip()
        )
        bad = [r for r in rules if not _RULE_NAME.match(r)]
        if not rules or bad:
            problems.append(
                Finding(
                    "R0",
                    path,
                    line,
                    tok.start[1],
                    f"ignore directive names unknown rule(s) {bad or '(none)'}"
                    " — use R1..R5",
                )
            )
            continue
        reason = match.group("reason").strip()
        if not reason:
            problems.append(
                Finding(
                    "R0",
                    path,
                    line,
                    tok.start[1],
                    f"ignore[{', '.join(rules)}] has no reason — every "
                    "exemption must say why it is safe",
                )
            )
            continue
        own_line = line in code_lines
        applies_to = line
        if not own_line:
            applies_to = min(
                (c for c in code_lines if c > line), default=line
            )
        directives.append(IgnoreDirective(line, applies_to, rules, reason))
    return IgnoreSet(directives, problems)
