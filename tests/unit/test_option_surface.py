"""Ratchet on the surface of ``src/repro``: nothing only a test needs.

Every independently settable value doubles the configurations the tests and
the benchmark would have to cover, and every definition is code a reader
must get through. So three things earn their place only if the program
itself uses them:

* a parameter with a default (keyword-only or positional; ``def f(x=x)``
  binds a closure value and is none) — some call outside ``tests/`` that
  can reach its function passes it a value other than that default, by
  keyword or by position (a call through an instance or a class fills
  ``self``/``cls`` itself, ``Base.__init__(self, ...)`` does not).
  A call reaches what its callee names, once an import alias is removed
  (``call as rpc_call``): a plain name the module-level functions and
  classes of that name, an attribute every function or method of that
  name (so does a local name bound to it, ``reg = self.rpc.register``),
  a class its ``__init__`` (or its nearest base's), ``super().m``
  the bases' ``m``. A function handing on what it was given carries its
  own callers' values: ``g(x=x)`` inside ``f(*, x=0)`` passes ``g`` every
  value that reaches ``f``'s ``x`` and ``f``'s default; a choice built only
  from one option and ``self`` (``x=self._x if x is None else x``) passes
  another value only when that option gets one; ``g(**kwargs)`` passes on
  every keyword that reaches ``f``'s own ``**kwargs``. A ``**mapping`` that
  is not the caller's own ``**kwargs``, and a key ``kwargs.setdefault``
  adds, pass a value other than any default. Values compare as literals or
  by an UPPER_CASE constant's name; anything else differs from every
  default;
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
CALLER_TREES = ("src", "perf", "examples", "tools")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: A value the gate cannot tell apart from any other.
ANY = "*"

#: ``file::function(parameter)`` -> why it stays although nothing passes it.
OPTION_EXEMPT = {
    "sim/kernel.py::Kernel._enqueue(priority)":
        "the heap key is (time, priority, sequence): the sanitizer reads it "
        "and ROADMAP's bounded schedule explorer replaces the tie-break "
        "inside it",
    "sim/kernel.py::Kernel.__init__(sanitize)":
        "the determinism sanitizer is a verification instrument: tests and "
        "CI's REPRO_SANITIZE=1 runs are its callers by design",
    "cluster/cluster.py::Cluster.__init__(sanitize)":
        "forwards the kernel's sanitizer switch, for the same callers",
    **{f"pbs/{module}.py::{daemon}.__init__(port)":
       "a daemon's port is a deployment address"
       for module, daemon in (("mom", "PBSMom"), ("scheduler", "MauiScheduler"),
                              ("server", "PBSServer"))},
    **{f"ha/correlated.py::monte_carlo_correlated({parameter})":
       "the reference implementation the closed-form tests compare against"
       for parameter in ("mttf_hours", "mttr_hours", "cc_mttf_hours",
                         "cc_mttr_hours", "horizon_years", "seed")},
    "ha/raslog.py::RASCollector.node_downtime(until)":
        "RASCollector stays for ROADMAP item 5 (see DEFINITION_EXEMPT)",
    "joshua/gateway.py::JoshuaGateway.__init__(consistency)":
        "perf/workloads.py, the benchmark, passes it by name, and perf/ "
        "changes only in a benchmark change: it goes with the next one "
        "(ROADMAP item 15)",
    "faults/invariants.py::InvariantSuite.sampler(interval)":
        "perf/workloads.py, the benchmark, passes it (positionally), and "
        "perf/ changes only in a benchmark change: it goes with the next one",
}

#: ``file::name`` -> why it stays although only tests name it.
DEFINITION_EXEMPT = {
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


def _value(node):
    """What a passed value or a default compares by: the ``ast.dump`` of a
    literal, the name of an UPPER_CASE constant however it is reached
    (``ERA_2006``, ``service_times.ERA_2006``), else :data:`ANY`."""
    try:
        ast.literal_eval(node)
        return ast.dump(node)
    except (ValueError, TypeError, SyntaxError):
        pass
    name = _name_of(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
    return name if name and name.isupper() else ANY


class _Function:
    """One def in a caller tree: its options and the values that reach them."""

    def __init__(self, node, label, owner):
        args = node.args
        self.label, self.owner = label, owner
        positional = [*args.posonlyargs, *args.args]
        #: the positional parameters in order, and whether a call through
        #: an instance or class binds the first (``self``/``cls``) itself
        self.positional = [a.arg for a in positional]
        self.binds_first = owner is not None and not any(
            _name_of(d) == "staticmethod" for d in node.decorator_list)
        #: option -> the value of its default; ``def f(x=x)`` binds a
        #: closure value, it is no option
        with_defaults = [*zip(positional[len(positional) - len(args.defaults):],
                              args.defaults),
                         *zip(args.kwonlyargs, args.kw_defaults)]
        self.defaults = {arg.arg: _value(default) for arg, default in with_defaults
                         if default is not None
                         and not (isinstance(default, ast.Name) and default.id == arg.arg)}
        self.params = {a.arg for a in (*positional, *args.kwonlyargs)}
        self.kwargs = args.kwarg.arg if args.kwarg else None
        #: local name -> attribute, for each ``name = <expr>.attr`` in the
        #: body: a call of the name is a call of that attribute
        self.bound = {target.id: stmt.value.attr for stmt in ast.walk(node)
                      if isinstance(stmt, ast.Assign)
                      and isinstance(stmt.value, ast.Attribute)
                      for target in stmt.targets if isinstance(target, ast.Name)}
        #: option -> every value some call passes it
        self.reached = {option: set() for option in self.defaults}
        #: keyword -> the values some call passes into ``**kwargs``
        self.extra = {}
        #: whether ``**kwargs`` is kept for a call the gate cannot follow:
        #: what reaches it then counts for every option of the keyword's name
        self.keeps = self.kwargs is not None and _keeps(node, self.kwargs)

    def give(self, key, values, explicit_self=False) -> bool:
        """Pass *values* under the keyword *key*, an int for the positional
        argument at that index, ``(index,)`` for a ``*args`` there, or
        :data:`ANY` for every keyword; whether anything new arrived.
        *explicit_self*: the call passes ``self`` itself
        (``Base.__init__(self, ...)``)."""
        if not isinstance(key, str):
            start = key[0] if isinstance(key, tuple) else key
            if self.binds_first and not explicit_self:
                start += 1
            names = self.positional[start:] if isinstance(key, tuple) else \
                self.positional[start:start + 1]
            grew = [self.give(name, values) for name in names]
            return any(grew)
        if key == ANY:
            slots = list(self.reached.values())
            if self.kwargs:
                slots.append(self.extra.setdefault(ANY, set()))
            values = {ANY}
        elif key in self.reached:
            slots = [self.reached[key]]
        elif self.kwargs and key not in self.params:
            slots = [self.extra.setdefault(key, set())]
        else:
            return False
        grew = [slot for slot in slots if not values <= slot]
        for slot in grew:
            slot |= values
        return bool(grew)

    def varied(self, option) -> bool:
        """Whether some value other than *option*'s default reaches it."""
        default = self.defaults[option]
        return any(v == ANY or v != default for v in self.reached[option])


def _keeps(function, kwargs) -> bool:
    """Whether *function* keeps its ``**kwargs`` dict on an attribute for a
    later call (``self._options = options``) that the gate cannot follow."""
    return any(isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
               and node.value.id == kwargs
               and any(isinstance(t, ast.Attribute) for t in node.targets)
               for node in ast.walk(function))


class _Class:
    def __init__(self, name, bases):
        self.name, self.bases, self.methods = name, bases, {}


class _Calls:
    """Every def, class and call of the caller trees, and what reaches where."""

    def __init__(self):
        self.functions = {}  # name -> [_Function]
        self.classes = {}  # name -> [_Class]
        self.calls = []  # (call, enclosing _Functions, enclosing _Class, aliases)

    def collect(self, tree, where, aliases, prefix="", stack=(), cls=None, owner=None):
        """Record the defs, classes and calls under *tree*; *stack* holds the
        enclosing functions, *cls* the class whose method encloses them and
        *owner* the class whose body *tree* is."""
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, ast.ClassDef):
                inner = _Class(node.name, [_name_of(b) for b in node.bases])
                self.classes.setdefault(node.name, []).append(inner)
                self.collect(node, where, aliases, f"{prefix}{node.name}.", stack, cls, inner)
            elif isinstance(node, FUNCTIONS):
                fn = _Function(node, f"{where}::{prefix}{node.name}", owner)
                self.functions.setdefault(node.name, []).append(fn)
                if owner is not None:
                    owner.methods[node.name] = fn
                self.collect(node, where, aliases, f"{prefix}{node.name}.",
                             (*stack, fn), owner or cls)
            else:
                if isinstance(node, ast.Call):
                    self.calls.append((node, stack, cls, aliases))
                self.collect(node, where, aliases, prefix, stack, cls)

    def method(self, class_name, name, seen=()):
        """The functions ``class_name.name`` resolves to, through the bases."""
        found = []
        for cls in self.classes.get(class_name, ()):
            if name in cls.methods:
                found.append(cls.methods[name])
            elif class_name not in seen:
                for base in cls.bases:
                    found += self.method(base, name, (*seen, class_name))
        return found

    def targets(self, call, stack, cls, aliases):
        """Every function *call* can reach."""
        func = call.func
        bound = isinstance(func, ast.Name) and _innermost(stack, lambda fn: func.id in fn.bound)
        if bound:
            func = ast.Attribute(ast.Name("_"), bound.bound[func.id])
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Call) and _callee(func.value) == "super":
                return [m for base in (cls.bases if cls else ())
                        for m in self.method(base, func.attr)]
            if func.attr == "__init__" and isinstance(func.value, ast.Name):
                return self.method(func.value.id, "__init__")
            name = func.attr
            functions = self.functions.get(name, [])
        elif isinstance(func, ast.Name):
            name = aliases.get(func.id, func.id)
            if name == "cls" and cls is not None:
                name = cls.name
            functions = [f for f in self.functions.get(name, []) if f.owner is None]
        else:
            return []
        return functions + self.method(name, "__init__")

    def plan(self):
        """(targets, sources) per call: each source a zero-argument function
        returning the (keyword, values) pairs it passes at that moment."""
        plans = []
        for call, stack, cls, aliases in self.calls:
            setdefault = _kwargs_setdefault(call, stack)
            if setdefault is not None:
                plans.append(([setdefault[0]], [lambda key=setdefault[1]: [(key, {ANY})]],
                              False))
            targets = self.targets(call, stack, cls, aliases)
            if targets:
                sources = [_source(k.arg, k.value, stack) for k in call.keywords]
                sources += [_source((index,), arg.value, stack)
                            if isinstance(arg, ast.Starred) else _source(index, arg, stack)
                            for index, arg in enumerate(call.args)]
                func = call.func
                explicit_self = (isinstance(func, ast.Attribute) and func.attr == "__init__"
                                 and isinstance(func.value, ast.Name))
                plans.append((targets, sources, explicit_self))
        return plans

    def propagate(self):
        plans = self.plan()
        every = [fn for functions in self.functions.values() for fn in functions]
        by_option = {}
        for fn in every:
            for option in fn.defaults:
                by_option.setdefault(option, []).append(fn)
        kept = [fn for fn in every if fn.keeps]
        grew = True
        while grew:
            grew = False
            for targets, sources, explicit_self in plans:
                for source in sources:
                    for key, values in source():
                        for target in targets:
                            grew |= target.give(key, values, explicit_self)
            for fn in kept:
                for key, values in list(fn.extra.items()):
                    for target in by_option.get(key, ()):
                        grew |= target.give(key, values)


def _innermost(stack, holds):
    return next((fn for fn in reversed(stack) if holds(fn)), None)


def _kwargs_setdefault(call, stack):
    """(function, key) if *call* is ``kwargs.setdefault("key", ...)`` on the
    enclosing function's own ``**kwargs``."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "setdefault"
            and isinstance(func.value, ast.Name) and call.args
            and isinstance(call.args[0], ast.Constant)):
        return None
    owner = _innermost(stack, lambda fn: fn.kwargs == func.value.id)
    return None if owner is None else (owner, call.args[0].value)


def _source(key, value, stack):
    """What the argument *value* passes under *key* (a keyword, ``None``
    for ``**mapping``, else a position), as a function of what reaches its
    enclosing functions (the sources of :meth:`_Calls.plan`)."""
    if isinstance(key, tuple):
        return lambda: [(key, {ANY})]
    if key is None:
        name = getattr(value, "id", None)
        owner = _innermost(stack, lambda fn: fn.kwargs is not None and fn.kwargs == name)
        if owner is None:
            return lambda: [(ANY, {ANY})]
        return lambda: [(key, set(values)) for key, values in owner.extra.items()]
    names = {n.id for n in ast.walk(value) if isinstance(n, ast.Name)}
    options = names - {"self"}
    if len(options) == 1 and isinstance(value, (ast.Name, ast.IfExp, ast.BoolOp)):
        (option,) = options
        owner = _innermost(stack, lambda fn: option in fn.params)
        if owner is not None and option in owner.defaults:
            if isinstance(value, ast.Name):
                return lambda: [(key, owner.reached[option] | {owner.defaults[option]})]
            return lambda: [(key, {ANY} if owner.varied(option) else set())]
    values = {_value(value)}
    return lambda: [(key, values)]


def _aliases(tree):
    """local name -> imported name, for every ``import ... as`` of *tree*."""
    return {alias.asname: alias.name.rpartition(".")[2]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names if alias.asname}


@cache
def _scan():
    """Everything the three gates read, from one parse per file.

    ``options``: (function, option, label) of each keyword-only option
    declared under src/repro, the function's ``reached`` filled by
    :meth:`_Calls.propagate`; ``definitions``: (name, label) of each
    top-level def/class under src/repro; ``names``: identifier -> labels of
    the definitions whose bodies name it (``None`` for code outside one),
    counting neither ``__all__`` nor a package ``__init__``'s imports;
    ``fields``: GroupConfig field -> its default; ``settings``: (keyword,
    value) of every GroupConfig/replace call. No file under ``tests/`` is
    read.
    """
    scan = SimpleNamespace(options=[], definitions=[], names={}, fields={}, settings=[])
    calls, modules = _Calls(), set()
    for tree_name in CALLER_TREES:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            where = (path.relative_to(PACKAGE).as_posix()
                     if PACKAGE in path.parents else None)
            reexports = path.name == "__init__.py"
            if where is not None:
                modules.add(where)
            tree = ast.parse(path.read_text())
            calls.collect(tree, where or path.relative_to(ROOT).as_posix(), _aliases(tree))
            for stmt in tree.body:
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
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call) and _callee(node) in ("GroupConfig", "replace"):
                        scan.settings += [(k.arg, ast.dump(k.value))
                                          for k in node.keywords if k.arg]
                    name = _name_of(node) if counts else None
                    if name is not None:
                        scan.names.setdefault(name, set()).add(owner)
    calls.propagate()
    scan.options = [(fn, option, f"{fn.label}({option})")
                    for functions in calls.functions.values() for fn in functions
                    if fn.label.partition("::")[0] in modules
                    for option in sorted(fn.defaults)]
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
    never = sorted(label for fn, option, label in scan.options if not fn.varied(option))
    _assert_exactly_exempt(
        never, OPTION_EXEMPT, 15,
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
        uncalled, DEFINITION_EXEMPT, 2,
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
