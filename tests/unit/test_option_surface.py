"""Ratchet on the surface of ``src/repro``: nothing only a test needs.

Every independently settable value doubles the configurations the tests and
the benchmark would have to cover, and every definition is code a reader
must get through. So three things earn their place only if the program
itself uses them:

* a keyword-only parameter with a default — some call outside ``tests/``
  passes it a value other than that default (a function handing its own
  option on under the same name is no caller of either: ``g(x=x)`` inside
  ``f(*, x=0)``, or any value built only from that option and ``self``,
  such as ``x=self._x if x is None else x``; neither is a call passing
  ``x=0``, the default's own literal);
* a top-level function or class — something outside ``tests/`` names it;
* a :class:`~repro.gcs.config.GroupConfig` field — some non-test
  ``GroupConfig(...)`` or ``replace(...)`` call sets it to a value other
  than its default.

This reads the source with ``ast`` — nothing is imported or run, and every
file is parsed once — and fails on anything that breaks a rule, unless it
is listed below with the reason it stays. A never-passed option or a
single-valued field becomes a module or class constant (or goes with the
branch it guarded); a definition nothing calls is deleted. None of them
gets an exemption for that alone.
"""

import ast
from functools import cache
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
#: Where a caller counts: everywhere but ``tests/``.
CALLER_TREES = ("src", "perf", "benchmarks", "examples", "tools")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: ``file::function(parameter)`` -> why it stays although nothing passes it.
OPTION_EXEMPT = {
    "sim/kernel.py::_enqueue(priority)":
        "the heap key is (time, priority, sequence): the sanitizer reads it "
        "and ROADMAP's bounded schedule explorer replaces the tie-break "
        "inside it",
    "sim/kernel.py::__init__(sanitize)":
        "the determinism sanitizer is a verification instrument: tests and "
        "CI's REPRO_SANITIZE=1 runs are its callers by design",
    "cluster/cluster.py::__init__(sanitize)":
        "forwards the kernel's sanitizer switch, for the same callers",
}

#: ``file::name`` -> why it stays although only tests name it.
DEFINITION_EXEMPT = {
    "analysis/runner.py::check_source":
        "the lint tests' entry point for checking a source snippet",
    "ha/correlated.py::monte_carlo_correlated":
        "the reference implementation the closed-form tests compare against",
    "ha/raslog.py::RASCollector":
        "ROADMAP item 5 (Figure 12 measured on the stack) gives it a caller; "
        "test_ha_raslog.py covers it",
}

#: ``GroupConfig.field`` -> why it stays although no program sets it.
FIELD_EXEMPT = {}


def _name_of(node):
    """The identifier *node* refers to, if it is a reference at all."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value  # perf/layer_trace.py names what it wraps in strings
    return None


def _is_all(stmt) -> bool:
    targets = getattr(stmt, "targets", None) or [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _callee(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _options_of(function):
    """option name -> its default expression."""
    return {arg.arg: default for arg, default in zip(function.args.kwonlyargs,
                                                     function.args.kw_defaults)
            if default is not None}


def _literal(node):
    """``ast.dump`` of *node* if it is a literal, else ``None``."""
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return None
    return ast.dump(node)


def _forwarders(stmt):
    """id(call) -> the options of every function enclosing that call.

    A call inside ``f(*, x=0)`` (or a closure in ``f``) that passes ``x=x``
    only forwards ``f``'s own default: it is no caller of ``x``.
    """
    enclosing = {}
    for node in ast.walk(stmt):
        if isinstance(node, FUNCTIONS):
            options = _options_of(node)
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    enclosing.setdefault(id(call), set()).update(options)
    return enclosing


def _forwards(keyword: ast.keyword, forwarded) -> bool:
    """Whether *keyword* only hands on the enclosing function's own option:
    its value is built from nothing but that option and ``self``
    (``x=x``, ``x=self._x if x is None else x``)."""
    if keyword.arg not in forwarded:
        return False
    names = {n.id for n in ast.walk(keyword.value) if isinstance(n, ast.Name)}
    return keyword.arg in names and names <= {keyword.arg, "self"}


def _passes(call: ast.Call, forwarded):
    """(keyword, literal or ``"*"`` for any other value) of every keyword
    *call* passes other than by forwarding."""
    return ((k.arg, _literal(k.value) or "*") for k in call.keywords
            if k.arg and not _forwards(k, forwarded))


@cache
def _scan():
    """Everything the three gates read, from one parse per file.

    ``options``: (name, label, default literal or ``None``) of each
    keyword-only option declared under src/repro; ``passed``: keyword name
    -> the values some call outside ``tests/`` passes it other than by
    forwarding (:func:`_forwarders`, :func:`_passes`); ``definitions``:
    (name, label) of each top-level def/class under src/repro; ``names``:
    identifier -> labels of the definitions whose bodies name it (``None``
    for code outside one), counting neither ``__all__`` nor a package
    ``__init__``'s imports; ``fields``: GroupConfig field -> its default;
    ``settings``: (keyword, value) of every GroupConfig/replace call. No
    file under ``tests/`` is read.
    """
    scan = SimpleNamespace(options=[], passed={}, definitions=[], names={},
                           fields={}, settings=[])
    for tree_name in CALLER_TREES:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            where = (path.relative_to(PACKAGE).as_posix()
                     if PACKAGE in path.parents else None)
            reexports = path.name == "__init__.py"
            for stmt in ast.parse(path.read_text()).body:
                owner = None
                if where is not None and isinstance(stmt, (*FUNCTIONS, ast.ClassDef)):
                    owner = f"{where}::{stmt.name}"
                    scan.definitions.append((stmt.name, owner))
                if owner == "gcs/config.py::GroupConfig":
                    scan.fields = {
                        s.target.id: ast.dump(s.value) for s in stmt.body
                        if isinstance(s, ast.AnnAssign) and s.value is not None
                    }
                counts = not _is_all(stmt) and not (
                    reexports and isinstance(stmt, (ast.Import, ast.ImportFrom)))
                forwarders = _forwarders(stmt)
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call):
                        for keyword, value in _passes(node, forwarders.get(id(node), ())):
                            scan.passed.setdefault(keyword, set()).add(value)
                        if _callee(node) in ("GroupConfig", "replace"):
                            scan.settings += [(k.arg, ast.dump(k.value))
                                              for k in node.keywords if k.arg]
                    elif where is not None and isinstance(node, FUNCTIONS):
                        scan.options += [(name, f"{where}::{node.name}({name})",
                                          _literal(default))
                                         for name, default in sorted(_options_of(node).items())]
                    name = _name_of(node) if counts else None
                    if name is not None:
                        scan.names.setdefault(name, set()).add(owner)
    return scan


def _assert_exactly_exempt(flagged, exempt, cap, remedy):
    unexplained = [label for label in flagged if label not in exempt]
    assert not unexplained, (
        f"{len(unexplained)} {remedy}:\n  " + "\n  ".join(unexplained)
    )
    assert len(exempt) <= cap
    assert sorted(exempt) == flagged, "an exemption outlived its target"


def test_every_keyword_option_is_passed_by_some_call_site():
    scan = _scan()
    assert len(scan.options) > 100  # the scan found the package
    never = sorted(label for name, label, default in scan.options
                   if not scan.passed.get(name, set()) - {default})
    _assert_exactly_exempt(
        never, OPTION_EXEMPT, 3,
        "option(s) no call outside tests/ passes anything but the default — "
        "make each a constant or delete it",
    )


def test_every_definition_has_a_caller():
    scan = _scan()
    assert len(scan.definitions) > 300
    # A definition's own body does not count as its caller.
    uncalled = sorted(label for name, label in scan.definitions
                      if not scan.names.get(name, set()) - {label})
    _assert_exactly_exempt(
        uncalled, DEFINITION_EXEMPT, 3,
        "definition(s) only tests name — delete each with its tests",
    )


def test_every_group_config_field_is_set_to_a_non_default_value():
    scan = _scan()
    assert len(scan.fields) > 10
    varied = {field for field, value in scan.settings
              if field in scan.fields and value != scan.fields[field]}
    single = sorted(f"GroupConfig.{field}" for field in scan.fields
                    if field not in varied)
    _assert_exactly_exempt(
        single, FIELD_EXEMPT, 0,
        "GroupConfig field(s) no program sets off the default — make each a "
        "module constant where it is read",
    )


def test_rpc_substrate_has_one_call_signature_and_one_hook_surface():
    rpc = PACKAGE / "rpc"
    rpc_source = "\n".join(p.read_text() for p in sorted(rpc.glob("*.py")))
    for retired in ("RetryPolicy", "DEFAULT_POLICY", "pre_dispatch", "post_dispatch"):
        assert retired not in rpc_source
    wire_source = (PACKAGE / "pbs" / "wire.py").read_text()
    assert "rpc_call" not in wire_source
    assert "RpcTimeout" not in wire_source
    assert not (rpc / "policy.py").exists()
