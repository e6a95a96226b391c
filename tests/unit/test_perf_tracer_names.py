"""Tier-1 guard for the names the benchmark binds under ``src/``.

``perf/layer_trace.py`` binds to private names at run time (``install()``
raises ``AttributeError`` on a stale one) and every ``perf/*.py`` imports
its stack builders, observers, fault plane and group configurations from
``repro``, but ``perf/`` is only exercised by CI's ``pytest perf/``. These
tests read the tracer's tables — without installing a single shim — and the
import statements, and check every name still resolves, so a rename or a
deletion fails here, in under a second.
"""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

from tests.integration.conftest import make_stack

PERF = Path(__file__).resolve().parents[2] / "perf"


def _load_tables():
    spec = importlib.util.spec_from_file_location(
        "_layer_trace_tables", PERF / "layer_trace.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, class_name, attribute):
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    return getattr(owner, attribute)


def test_every_repro_name_perf_imports_resolves():
    imported = [
        (path.name, node.module, alias.name)
        for path in sorted(PERF.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and (node.module or "").split(".")[0] == "repro"
        for alias in node.names
    ]
    assert {"CHAOS_GROUP", "BATCHED_GROUP_CONFIG", "build_joshua_stack"} <= {
        name for _file, _module, name in imported
    }
    for file, module_name, name in imported:
        assert hasattr(importlib.import_module(module_name), name), (
            f"perf/{file}: from {module_name} import {name}"
        )


def test_every_traced_name_resolves():
    tables = _load_tables()
    for module_name, class_name, method, _span in tables.SYNC:
        assert callable(_resolve(module_name, class_name, method))
    for module_name, class_name in tables.REGISTERED:
        assert inspect.isclass(
            getattr(importlib.import_module(module_name), class_name)
        )
    for module_name, class_name, method, _key, extra in tables.COUNTED:
        target = _resolve(module_name, class_name, method)
        if extra is not None:  # (sum name, index of the argument summed)
            assert len(inspect.signature(target).parameters) > extra[1]


def test_generator_targets_are_generator_functions():
    tables = _load_tables()
    for module_name, class_name, function, _span, uuid_arg in tables.GENERATORS:
        target = _resolve(module_name, class_name, function)
        assert inspect.isgeneratorfunction(target), (module_name, function)
        if uuid_arg is not None:
            assert len(inspect.signature(target).parameters) > uuid_arg


def test_shard_replica_counters_the_ledger_reads_exist():
    """``perf/measure.py`` reads ``stat("ShardReplica", key)`` with a
    default of 0, so a renamed counter would zero a ledger row silently."""
    keys = re.findall(
        r'stat\("ShardReplica", "(\w+)"\)', (PERF / "measure.py").read_text()
    )
    assert keys
    stack = make_stack()
    stack.cluster.run(until=0.0)
    replica = stack.joshua("head0").shards[0]
    assert type(replica).__name__ == "ShardReplica"
    assert set(keys) <= set(replica.stats)
