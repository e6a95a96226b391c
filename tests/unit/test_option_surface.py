"""Ratchet on the option surface of ``src/repro``: nobody sets it, it goes.

Every independently settable value doubles the configurations the tests and
the benchmark would have to cover, so a keyword-only parameter with a
default earns its place only if *some* call site in the repository passes
it. This reads the source with ``ast`` — nothing is imported or run — and
fails on a parameter no call anywhere names, unless it is listed below with
the reason it stays. A never-passed option becomes a module or class
constant (or goes with the branch it guarded); it does not get an exemption.
"""

import ast
from pathlib import Path

import repro.pbs.wire
import repro.rpc

ROOT = Path(__file__).resolve().parents[2]
CALLER_TREES = ("src", "tests", "perf", "benchmarks", "examples", "tools")

#: ``file::function(parameter)`` -> why it stays although nothing passes it.
EXEMPT = {
    "sim/kernel.py::_enqueue(priority)":
        "the heap key is (time, priority, sequence): the sanitizer reads it "
        "and ROADMAP's bounded schedule explorer replaces the tie-break "
        "inside it",
    "util/config.py::add_section(titled)":
        "floor-bound module: util/config.py goes whole, with its 50 floor "
        "tests, in a PR whose floor allows it",
}


def _scan():
    """(declared options under src/repro as (name, label), every keyword
    name some call passes) — one parse per file."""
    declared, passed = [], set()
    package = ROOT / "src" / "repro"
    for tree_name in CALLER_TREES:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            where = (path.relative_to(package).as_posix()
                     if package in path.parents else None)
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    passed.update(k.arg for k in node.keywords if k.arg)
                elif where is not None and isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    declared += [
                        (arg.arg, f"{where}::{node.name}({arg.arg})")
                        for arg, default in zip(node.args.kwonlyargs,
                                                node.args.kw_defaults)
                        if default is not None
                    ]
    return declared, passed


def test_every_keyword_option_is_passed_by_some_call_site():
    declared, passed = _scan()
    assert len(declared) > 100  # the scan found the package
    never = sorted(label for name, label in declared if name not in passed)
    unexplained = [label for label in never if label not in EXEMPT]
    assert not unexplained, (
        f"{len(unexplained)} option(s) no call site passes — make each a "
        "constant or delete it:\n  " + "\n  ".join(unexplained)
    )
    assert len(EXEMPT) <= 5
    assert sorted(EXEMPT) == never, "an exemption outlived its option"


def test_rpc_substrate_has_one_call_signature_and_one_hook_surface():
    assert not hasattr(repro.rpc, "RetryPolicy")
    assert not hasattr(repro.rpc, "DEFAULT_POLICY")
    assert not hasattr(repro.pbs.wire, "rpc_call")
    assert not hasattr(repro.pbs.wire, "RpcTimeout")
    assert not (ROOT / "src" / "repro" / "rpc" / "policy.py").exists()
    # The two hook lists were instance attributes, so read the source.
    server_source = (ROOT / "src" / "repro" / "rpc" / "server.py").read_text()
    assert "pre_dispatch" not in server_source
    assert "post_dispatch" not in server_source
