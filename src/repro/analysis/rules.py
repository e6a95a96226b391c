"""Per-file AST rules R1, R2, R3, R5 (R4 is cross-file; see ``protocol``).

Each rule is a function ``(tree, source_path) -> list[Finding]`` plus an
``applies(path)`` predicate; the runner handles file discovery and ignore
directives. Paths are relative to the ``repro`` package root
(``"gcs/member.py"``), which is what the scoping predicates key on.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding

__all__ = ["PER_FILE_RULES", "rule_r1", "rule_r2", "rule_r3", "rule_r5"]

# Layers whose iteration order reaches the wire or the replicated state
# machine (R3's scope).
_PROTOCOL_LAYERS = ("net/", "rpc/", "gcs/", "aa/", "pbs/", "joshua/")

# Reducers whose result does not depend on iteration order; an unordered
# iteration consumed by one of these is harmless.
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "min", "max", "sum", "any", "all", "len", "set", "frozenset"}
)

# Mutating methods the passive observability layer must never call on the
# simulation it watches (R5). Receiver-typed precision is out of reach for
# an AST linter, so the names are chosen to be unambiguous verbs of the
# Network/Transport/Kernel/daemon APIs.
_MUTATORS = frozenset(
    {
        "send", "send_raw", "multicast", "spawn", "timeout", "succeed",
        "fail", "interrupt", "put", "put_nowait", "bind", "boot", "crash",
        "repair", "join", "leave", "stop", "start", "shutdown",
        "pause_node", "resume_node", "set_node_up", "set_node_slowdown",
        "add_drop_filter", "remove_drop_filter", "install_view", "submit",
        "run_job", "register", "schedule", "enqueue",
    }
)


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _ImportMap:
    """Resolve local names back to the canonical module path they import."""

    def __init__(self, tree: ast.AST):
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve(self, dotted: str) -> str:
        head, _, rest = dotted.partition(".")
        head = self.aliases.get(head, head)
        return f"{head}.{rest}" if rest else head


# -- R1: wall clock / OS entropy ---------------------------------------------

#: Fully-resolved call targets that read the host clock or OS entropy.
_R1_BANNED_EXACT = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns", "time.localtime", "time.gmtime",
        "time.ctime", "time.sleep",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today", "datetime.now",
        "datetime.utcnow", "datetime.today", "date.today",
        "os.urandom", "os.getrandom",
        "uuid.uuid1", "uuid.uuid4",
    }
)
#: Module prefixes where *every* call is banned (OS entropy).
_R1_BANNED_PREFIXES = ("secrets.",)
#: ``random.<anything>`` except an explicitly seeded ``random.Random(seed)``.
_R1_RANDOM_MODULE = "random."


def rule_r1_applies(path: str) -> bool:
    # util/rng.py is the one sanctioned wrapper around entropy sources.
    return path != "util/rng.py"


def rule_r1(tree: ast.AST, path: str) -> list[Finding]:
    findings: list[Finding] = []
    imports = _ImportMap(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        resolved = imports.resolve(dotted)
        message = None
        if resolved in _R1_BANNED_EXACT:
            message = f"call to {resolved}() is a wall-clock/OS-entropy source"
        elif resolved.startswith(_R1_BANNED_PREFIXES):
            message = (
                f"call to {resolved}() uses OS randomness — draw from the "
                "kernel's seeded RandomStreams instead"
            )
        elif resolved.startswith(_R1_RANDOM_MODULE) or resolved == "random":
            if resolved in ("random.Random", "random.SystemRandom"):
                if resolved == "random.SystemRandom" or not node.args:
                    message = (
                        f"{resolved}() without an explicit seed draws from "
                        "OS entropy"
                    )
            else:
                message = (
                    f"call to {resolved}() uses the process-global RNG — use "
                    "a named stream from util.rng.RandomStreams"
                )
        if message is not None:
            findings.append(
                Finding(
                    "R1",
                    path,
                    node.lineno,
                    node.col_offset,
                    message + " (simulated time/randomness only outside util/rng.py)",
                )
            )
    return findings


# -- R2: module-level mutable state ------------------------------------------

_MUTABLE_FACTORIES = frozenset(
    {
        "set", "dict", "list", "bytearray",
        "collections.defaultdict", "collections.deque", "collections.Counter",
        "collections.OrderedDict", "defaultdict", "deque", "Counter",
        "OrderedDict", "itertools.count", "count",
    }
)


def rule_r2_applies(path: str) -> bool:
    return not path.startswith("analysis/")


def _r2_value_problem(value: ast.AST, imports: _ImportMap) -> str | None:
    if isinstance(value, (ast.List, ast.Set)):
        return "mutable %s display" % type(value).__name__.lower()
    if isinstance(value, ast.Dict):
        return "mutable dict display"
    if isinstance(value, (ast.ListComp, ast.SetComp, ast.DictComp)):
        return "mutable comprehension result"
    if isinstance(value, ast.Call):
        dotted = _dotted(value.func)
        if dotted is not None:
            resolved = imports.resolve(dotted)
            if resolved in _MUTABLE_FACTORIES or dotted in _MUTABLE_FACTORIES:
                return f"mutable {dotted}() instance"
    return None


def rule_r2(tree: ast.AST, path: str) -> list[Finding]:
    findings: list[Finding] = []
    imports = _ImportMap(tree)
    assert isinstance(tree, ast.Module)
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.AST | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        problem = _r2_value_problem(value, imports)
        if problem is None:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if name.startswith("__") and name.endswith("__"):
                continue  # __all__ and friends are interface metadata
            constant_style = name.isupper()
            empty_display = isinstance(
                value, (ast.List, ast.Set, ast.Dict)
            ) and not getattr(value, "keys", getattr(value, "elts", None))
            if constant_style and not empty_display and not isinstance(value, ast.Call):
                # A populated ALL_CAPS display is a lookup-table constant;
                # factories (set()/count()/deque()) are accumulators even
                # when named like constants.
                continue
            findings.append(
                Finding(
                    "R2",
                    path,
                    node.lineno,
                    node.col_offset,
                    f"module-level {problem} {name!r} is shared across "
                    "simulations — hang per-simulation state off the Network "
                    "via a *_state(network) accessor (rpc_state pattern)",
                )
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            findings.append(
                Finding(
                    "R2",
                    path,
                    node.lineno,
                    node.col_offset,
                    f"'global {', '.join(node.names)}' mutates module state — "
                    "per-simulation state belongs on the Network "
                    "(*_state(network) accessor)",
                )
            )
    return findings


# -- R3: unordered iteration in protocol layers -------------------------------


def rule_r3_applies(path: str) -> bool:
    return path.startswith(_PROTOCOL_LAYERS)


class _SetInference:
    """Names and ``self`` attributes statically known to hold sets."""

    def __init__(self, tree: ast.AST):
        self.set_attrs: set[str] = set()   # "self.X" known to be a set
        self.set_names: set[str] = set()   # local/param names known to be sets
        for node in ast.walk(tree):
            target = None
            value = None
            annotation = None
            if isinstance(node, ast.AnnAssign):
                target, value, annotation = node.target, node.value, node.annotation
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.arg):
                target, annotation = node, node.annotation
            if target is None:
                continue
            is_set = self._annotation_is_set(annotation) or self._value_is_set(value)
            if not is_set:
                continue
            if isinstance(target, ast.arg):
                self.set_names.add(target.arg)
            elif isinstance(target, ast.Name):
                self.set_names.add(target.id)
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self.set_attrs.add(target.attr)

    @staticmethod
    def _annotation_is_set(annotation: ast.AST | None) -> bool:
        if annotation is None:
            return False
        base = annotation
        if isinstance(base, ast.Subscript):
            base = base.value
        name = _dotted(base)
        return name in ("set", "Set", "typing.Set", "MutableSet", "AbstractSet")

    @classmethod
    def _value_is_set(cls, value: ast.AST | None) -> bool:
        if value is None:
            return False
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            return _dotted(value.func) in ("set", "frozenset")
        if isinstance(value, ast.IfExp):
            # x = a - b if cond else set(): set-like on either branch.
            return cls._value_is_set(value.body) or cls._value_is_set(value.orelse)
        if isinstance(value, ast.BinOp) and isinstance(
            value.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return cls._value_is_set(value.left) or cls._value_is_set(value.right)
        return False

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and _dotted(node.func) in ("set", "frozenset"):
            # set(...) used *as the iterable itself* gives hash order.
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr in self.set_attrs
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False


def _exempt_nodes(tree: ast.AST) -> set[int]:
    """ids of AST nodes inside an order-insensitive consumer call."""
    exempt: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name in _ORDER_INSENSITIVE:
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    for child in ast.walk(arg):
                        exempt.add(id(child))
    return exempt


def _iteration_sites(tree: ast.AST):
    """Yield ``(iterable_node, report_node)`` for every for/comprehension."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, node
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.iter, gen.iter


def rule_r3(tree: ast.AST, path: str) -> list[Finding]:
    findings: list[Finding] = []
    inference = _SetInference(tree)
    exempt = _exempt_nodes(tree)
    for iterable, report in _iteration_sites(tree):
        if id(iterable) in exempt:
            continue
        target = iterable
        # list(...) / tuple(...) wrappers preserve (un)orderedness: look
        # through them. sorted() is handled by the exemption pass above.
        while (
            isinstance(target, ast.Call)
            and _dotted(target.func) in ("list", "tuple", "iter", "reversed")
            and target.args
        ):
            target = target.args[0]
        if inference.is_set_expr(target):
            findings.append(
                Finding(
                    "R3",
                    path,
                    report.lineno,
                    report.col_offset,
                    "iteration over a set: order is hash-seed dependent and "
                    "reaches the protocol layer — iterate sorted(...) instead",
                )
            )
            continue
        if (
            isinstance(target, ast.Call)
            and isinstance(target.func, ast.Attribute)
            and target.func.attr in ("values", "keys", "items")
            and not target.args
        ):
            findings.append(
                Finding(
                    "R3",
                    path,
                    report.lineno,
                    report.col_offset,
                    f"iteration over dict .{target.func.attr}(): insertion "
                    "order is not a protocol invariant — iterate "
                    "sorted(...) or justify with an ignore[R3]",
                )
            )
    return findings


# -- R5: observability must be passive ---------------------------------------


def rule_r5_applies(path: str) -> bool:
    return path.startswith("obs/")


def rule_r5(tree: ast.AST, path: str) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _MUTATORS:
            continue
        # Calls on the hook object itself (self.…) are the collector's own
        # bookkeeping; string-literal receivers (", ".join(…)) are str
        # methods that merely collide with mutator names.
        receiver = func.value
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            continue
        if isinstance(receiver, ast.Constant):
            continue
        findings.append(
            Finding(
                "R5",
                path,
                node.lineno,
                node.col_offset,
                f"observability hook calls mutating method .{func.attr}() — "
                "repro.obs must remain passive (read counters, never drive "
                "the Network/Transport/Kernel)",
            )
        )
    return findings


#: rule name -> (applies(path) predicate, rule(tree, path) function)
PER_FILE_RULES = {
    "R1": (rule_r1_applies, rule_r1),
    "R2": (rule_r2_applies, rule_r2),
    "R3": (rule_r3_applies, rule_r3),
    "R5": (rule_r5_applies, rule_r5),
}
