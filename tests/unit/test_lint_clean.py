"""The shipped source tree satisfies its own determinism contract.

This is the enforcement test behind ``repro lint`` in CI: any new
wall-clock call, module-level cache, unordered protocol iteration,
unhandled wire message, or mutating observability hook fails here
with the finding rendered in the assertion message. ``repro lint
--ignores`` lists every in-line exemption with its reason.
"""

from repro.analysis import run_lint
from repro.cli import main


def test_source_tree_is_lint_clean():
    findings = run_lint()
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


def test_cli_lint_exits_clean(capsys):
    rc = main(["lint"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 finding(s)" in out


def test_cli_lint_jsonl_and_rule_filter(capsys):
    rc = main(["lint", "--rule", "R1", "--rule", "R5", "--jsonl"])
    capsys.readouterr()
    assert rc == 0


class TestIgnoresTable:
    def test_lists_every_directive_with_location_rule_and_reason(self, capsys):
        assert main(["lint", "--ignores"]) == 0
        out = capsys.readouterr().out
        # The shipped tree's known suppressions are all listed.
        assert "net/codec.py" in out and "[R3]" in out
        assert "active ignore directive(s)" in out
        # Every line carries a reason (the audit's purpose).
        rows = [line for line in out.splitlines() if "[R" in line]
        assert rows and all("] " in row and row.split("] ", 1)[1] for row in rows)
