"""The committed ``WIRE_SCHEMA.lock`` is the whole package's registry.

Drift between the lock and the code is the golden harness's to catch
(``tools/golden.py``'s ``WIRE_SCHEMA`` entry, checked in
``test_golden.py``); what is pinned here is that the registry it renders
is complete in every process:

* once every module of the package is imported, the registry renders to
  the committed lock, and every enum the package registers is locked;
* a fresh interpreter that only runs ``import repro`` presents the same
  schema digest at join as one that imported everything — which fails if
  a wire module is left out of ``repro/__init__``.
"""

import enum
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.net.codec import WIRE

LOCK = Path(repro.__file__).resolve().parent / "WIRE_SCHEMA.lock"


@pytest.fixture(scope="module")
def whole_registry():
    """The shared registry once every module of the package has been
    imported (all but ``__main__``)."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith(".__main__"):
            importlib.import_module(module.name)
    WIRE.self_check()
    return WIRE


class TestLockfileCompleteness:
    def test_lockfile_exists_and_matches_extraction(self, whole_registry):
        rendered = json.dumps(whole_registry.schema(), indent=1, sort_keys=True)
        assert LOCK.read_text(encoding="utf-8") == rendered + "\n", (
            "WIRE_SCHEMA.lock is stale — python tools/golden.py update WIRE_SCHEMA"
        )

    def test_every_runtime_enum_is_locked(self, whole_registry):
        locked = json.loads(LOCK.read_text(encoding="utf-8"))
        derived = whole_registry.schema()["enums"]
        runtime = [
            cls.__name__ for cls in whole_registry._records_by_type
            if isinstance(cls, enum.EnumMeta) and cls.__module__.startswith("repro.")
        ]
        assert runtime, "no registered wire enums?"
        for name in runtime:
            assert locked["enums"][name] == derived[name], name

    def test_a_bare_import_presents_the_whole_schema_digest(self, whole_registry):
        fresh = subprocess.run(
            [sys.executable, "-c",
             "import repro\nfrom repro.net.codec import WIRE\n"
             "print(WIRE.schema_digest())"],
            env={**os.environ, "PYTHONPATH": str(LOCK.parent.parent)},
            capture_output=True, text=True, check=True,
        )
        assert fresh.stdout.strip() == whole_registry.schema_digest(), (
            "a wire module registers only when something imports it: "
            "add it to repro/__init__.py"
        )
