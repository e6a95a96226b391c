"""R4: protocol completeness and handler shape.

**R4 — protocol completeness and shape.** For every wire-message dataclass
the rule demands:

* a **server-side handler** somewhere in the protocol's handler package —
  recognised as a dispatch-dict key (``{DataMsg: self._handle_data, …}``),
  a ``register``/``reg`` call argument (including tuple registrations), an
  ``isinstance(payload, T)`` test, or a ``match``-case class pattern;
* a **client-side constructor**: the class is instantiated somewhere in the
  codebase outside the wire module that defines it;
* **shape agreement**: when a registered handler can be resolved to a
  function in the registering module, every attribute it reads off its
  payload parameter must be a declared field (or method) of the message
  type(s) it was registered for — catching handlers that dereference
  fields a wire dataclass no longer carries;
* every ``ErrorResp`` **kind string** a server emits must have a
  client-side consumer (a matching string literal somewhere outside the
  emitting call), or a reasoned entry in :data:`ERROR_KINDS_EXEMPT` —
  catching error codes no client can ever branch on;
* **every datagram is a registered record** (PROTOCOLS.md §3): no
  ``.send(dst, ("TAG", ...))`` tuple-tagged frame, and no
  ``isinstance(…, Request)`` outside ``rpc/server.py`` — a daemon that
  unwraps the envelope by hand is invisible to the checks above.

Response types (``*Resp``) are produced by servers and consumed generically
by :func:`repro.rpc.client.call`, so they need a constructor but not a
registered handler. Types that are not wire messages at all (delivery
records, identifier tuples) are exempted in :data:`PROTOCOLS` with the
reason recorded next to the exemption.

Codec coverage — every exported record of a wire module registered, none
set-typed, every wire name unique — is no lint rule: the codec enforces it
when the module is imported (the registration contract in
:mod:`repro.net.codec`), and rule R7 reads the resulting registry.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.findings import Finding

__all__ = ["ERROR_KINDS_EXEMPT", "PROTOCOLS", "ProtocolSpec", "rule_r4"]


@dataclass(frozen=True)
class ProtocolSpec:
    """One wire module and where its handlers/constructors may live."""

    name: str
    wire: str                          # wire module, repro-relative path
    handler_prefixes: tuple[str, ...]  # dirs scanned for dispatch of its types
    #: type name -> why no handler is required (not a wire message).
    exempt: dict[str, str] = field(default_factory=dict)


PROTOCOLS = (
    ProtocolSpec(name="net", wire="net/frames.py", handler_prefixes=("net/",)),
    ProtocolSpec(name="rpc", wire="rpc/wire.py", handler_prefixes=("rpc/",)),
    ProtocolSpec(
        name="gcs",
        wire="gcs/messages.py",
        handler_prefixes=("gcs/",),
        exempt={
            "MessageId": "identifier tuple embedded in messages, not itself sent",
            "DeliveredMessage": "local delivery record handed to services, never on the wire",
        },
    ),
    ProtocolSpec(
        name="aa",
        wire="aa/wire.py",
        handler_prefixes=("aa/",),
        exempt={
            "ReplResult": "response record (named before the *Resp "
                          "convention), consumed generically by rpc.call",
        },
    ),
    ProtocolSpec(name="pbs", wire="pbs/wire.py", handler_prefixes=("pbs/",)),
    ProtocolSpec(name="joshua", wire="joshua/wire.py", handler_prefixes=("joshua/",)),
    ProtocolSpec(name="pvfs", wire="pvfs/wire.py", handler_prefixes=("pvfs/",)),
)

_REGISTER_NAMES = ("register", "reg")

#: ErrorResp kind -> why no client-side consumer is required.
ERROR_KINDS_EXEMPT = {
    "unknown-job": "terminal user-facing error, relayed verbatim by the CLI",
    "bad-state": "terminal user-facing error (illegal transition), not branched on",
    "pbs-error": "generic server failure wrapper, surfaced to the user as-is",
    "bad-request": "malformed/unroutable request; a correct client never sees it",
    "bad-command": "unknown replicated command kind; a correct client never sees it",
    "retry": "consumed generically: the state-transfer puller moves on to the "
             "next member on any relayed error (aa/engine.py)",
}


def _module_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "__all__"
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return [
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            ]
    return []


def _wire_classes(tree: ast.Module) -> dict[str, int]:
    """Class name -> definition line for classes exported via ``__all__``."""
    exported = set(_module_all(tree))
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, ast.ClassDef) and (not exported or node.name in exported)
    }


def _type_names(node: ast.AST) -> list[str]:
    """Type names out of a ``T`` or ``(T1, T2)`` dispatch argument."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Tuple, ast.List)):
        names: list[str] = []
        for elt in node.elts:
            names.extend(_type_names(elt))
        return names
    return []


def _call_name(node: ast.Call) -> str | None:
    """``f`` for a call ``f(...)`` or ``x.f(...)``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _handled_types(tree: ast.AST) -> set[str]:
    handled: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            # Dispatch-table display: {DataMsg: handler, ...}.
            for key in node.keys:
                if key is not None:
                    handled.update(
                        n for n in _type_names(key) if n[:1].isupper()
                    )
        elif isinstance(node, ast.Call):
            func_name = _call_name(node)
            if func_name in _REGISTER_NAMES and node.args:
                handled.update(_type_names(node.args[0]))
            elif func_name == "isinstance" and len(node.args) == 2:
                handled.update(_type_names(node.args[1]))
        elif isinstance(node, ast.MatchClass):
            handled.update(_type_names(node.cls))
    return handled


def _constructed_types(tree: ast.AST) -> set[str]:
    constructed: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            constructed.update(
                n for n in _type_names(node.func) if n[:1].isupper()
            )
    return constructed


# ---------------------------------------------------------------------------
# R4 shape: handler payload-field agreement
# ---------------------------------------------------------------------------


def _class_members(tree: ast.Module) -> dict[str, set[str]]:
    """Class name -> declared member names (fields, class vars, methods)."""
    members: dict[str, set[str]] = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        names: set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(stmt.name)
        members[node.name] = names
    return members


def _functions_by_name(tree: ast.Module) -> dict[str, list[ast.AST]]:
    defs: dict[str, list[ast.AST]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, []).append(node)
    return defs


def _registrations(tree: ast.Module) -> list[tuple[list[str], ast.AST]]:
    """``(registered type names, handler expression)`` for every dispatch
    registration in the module: ``register(T, handler)`` calls and
    ``{T: handler}`` dispatch-table entries."""
    regs: list[tuple[list[str], ast.AST]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func_name = _call_name(node)
            if func_name in _REGISTER_NAMES and len(node.args) >= 2:
                names = _type_names(node.args[0])
                if names:
                    regs.append((names, node.args[1]))
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if key is None:
                    continue
                names = [n for n in _type_names(key) if n[:1].isupper()]
                if names:
                    regs.append((names, value))
    return regs


def _handler_candidates(handler: ast.AST) -> set[str]:
    """Function names a handler expression may resolve to in its module:
    bare names, ``self.X`` attributes, and — for lambdas — the ``self.X``
    calls in the body that actually receive the payload parameter."""
    names: set[str] = set()
    if isinstance(handler, ast.Name):
        names.add(handler.id)
    for node in ast.walk(handler):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(node.attr)
    return names


def _lambda_forwards_payload(handler: ast.AST, candidate: str) -> bool:
    """For a ``lambda s, r, p: self.h(p)`` handler: does *candidate*'s call
    receive the lambda's payload (last) parameter? Handlers that ignore the
    payload (``self._do_purge()``) have nothing to shape-check."""
    if not isinstance(handler, ast.Lambda) or not handler.args.args:
        return True
    payload = handler.args.args[-1].arg
    for node in ast.walk(handler.body):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name == candidate:
                return any(
                    isinstance(arg, ast.Name) and arg.id == payload
                    for arg in node.args
                )
    return True


def _payload_attr_reads(fn: ast.AST) -> list[tuple[str, int]]:
    """Attribute names read off the function's payload (last) parameter."""
    args = list(fn.args.args)
    if args and args[0].arg == "self":
        args = args[1:]
    if not args:
        return []
    payload = args[-1].arg
    reads: list[tuple[str, int]] = []
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == payload
            and not node.attr.startswith("__")
        ):
            reads.append((node.attr, node.lineno))
    return reads


def _shape_findings(
    spec: ProtocolSpec,
    members: dict[str, set[str]],
    path: str,
    tree: ast.Module,
) -> list[Finding]:
    findings: list[Finding] = []
    defs = _functions_by_name(tree)
    for type_names, handler in _registrations(tree):
        known = [n for n in type_names if n in members]
        if not known:
            continue  # foreign types: another spec's (or no) wire module
        allowed: set[str] = set()
        for name in known:
            allowed |= members[name]
        for candidate in sorted(_handler_candidates(handler)):
            resolved = defs.get(candidate)
            if resolved is None or len(resolved) != 1:
                continue  # not in this module, or ambiguous — skip quietly
            if not _lambda_forwards_payload(handler, candidate):
                continue
            for attr, lineno in _payload_attr_reads(resolved[0]):
                if attr not in allowed:
                    findings.append(
                        Finding(
                            "R4",
                            path,
                            lineno,
                            0,
                            f"{spec.name} handler {candidate} reads payload."
                            f"{attr}, which is not a field of "
                            f"{'/'.join(sorted(known))} (see {spec.wire})",
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# R4 shape: every emitted ErrorResp kind has a consumer
# ---------------------------------------------------------------------------


def _error_resp_kinds(tree: ast.AST) -> tuple[list[tuple[str, int]], set[int]]:
    """``ErrorResp("<kind>", …)`` call sites: (kind, line) plus the ids of
    the kind-constant nodes (so the consumer scan can exclude them)."""
    emitted: list[tuple[str, int]] = []
    emitting_nodes: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if (
                name == "ErrorResp"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                emitted.append((node.args[0].value, node.lineno))
                emitting_nodes.add(id(node.args[0]))
    return emitted, emitting_nodes


def _error_kind_findings(files: dict[str, ast.Module]) -> list[Finding]:
    emitted: list[tuple[str, str, int]] = []  # (kind, path, line)
    consumers: set[str] = set()
    for path, tree in sorted(files.items()):
        if path.startswith("analysis/"):
            continue  # the lint's own exemption table is not a consumer
        kinds, emitting_nodes = _error_resp_kinds(tree)
        emitted.extend((kind, path, line) for kind, line in kinds)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in emitting_nodes
            ):
                consumers.add(node.value)
    findings: list[Finding] = []
    for kind, path, line in emitted:
        if kind in consumers or kind in ERROR_KINDS_EXEMPT:
            continue
        findings.append(
            Finding(
                "R4",
                path,
                line,
                0,
                f"ErrorResp kind {kind!r} has no client-side consumer — no "
                "code can branch on it (add one, or exempt it in "
                "analysis.protocol.ERROR_KINDS_EXEMPT with a reason)",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# R4 shape: every datagram is a registered record
# ---------------------------------------------------------------------------


def _untyped_frame_findings(files: dict[str, ast.Module]) -> list[Finding]:
    findings: list[Finding] = []
    for path, tree in sorted(files.items()):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or len(node.args) < 2:
                continue
            name, frame = _call_name(node), node.args[1]
            if (
                name == "send"
                and isinstance(frame, ast.Tuple)
                and frame.elts
                and isinstance(getattr(frame.elts[0], "value", None), str)
            ):
                message = (
                    f"tuple-tagged frame ({frame.elts[0].value!r}, …): every datagram "
                    "is a registered record — declare one (rpc.call it if it is a request)"
                )
            elif (
                name == "isinstance"
                and path != "rpc/server.py"
                and "Request" in _type_names(frame)
            ):
                message = (
                    "isinstance(…, Request) outside rpc/server.py — register a handler "
                    "with an RpcDispatcher instead of unwrapping the envelope by hand"
                )
            else:
                continue
            findings.append(Finding("R4", path, node.lineno, node.col_offset, message))
    return findings


def rule_r4(files: dict[str, ast.Module]) -> list[Finding]:
    """*files* maps repro-relative paths to parsed modules."""
    findings: list[Finding] = []
    for spec in PROTOCOLS:
        wire_tree = files.get(spec.wire)
        if wire_tree is None:
            continue
        classes = _wire_classes(wire_tree)
        members = _class_members(wire_tree)
        handled: set[str] = set()
        constructed: set[str] = set()
        for path, tree in files.items():
            if path == spec.wire:
                continue
            if path.startswith(spec.handler_prefixes):
                handled |= _handled_types(tree)
                findings.extend(_shape_findings(spec, members, path, tree))
            constructed |= _constructed_types(tree)
        for cls, lineno in sorted(classes.items()):
            if cls in spec.exempt:
                continue
            is_response = cls.endswith("Resp")
            if not is_response and cls not in handled:
                findings.append(
                    Finding(
                        "R4",
                        spec.wire,
                        lineno,
                        0,
                        f"{spec.name} message {cls} has no handler in "
                        f"{'/'.join(spec.handler_prefixes)} — register it in a "
                        "dispatch table (or exempt it in analysis.protocol."
                        "PROTOCOLS with a reason)",
                    )
                )
            if cls not in constructed:
                findings.append(
                    Finding(
                        "R4",
                        spec.wire,
                        lineno,
                        0,
                        f"{spec.name} message {cls} is never constructed "
                        "outside its wire module — dead wire type (no "
                        "client-side encoder)",
                    )
                )
    findings.extend(_error_kind_findings(files))
    findings.extend(_untyped_frame_findings(files))
    return findings
