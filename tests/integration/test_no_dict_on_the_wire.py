"""No ``dict`` crosses the wire in the benchmark's four workloads.

A dict on the wire writes every key string in every frame; a qstat row is
a :class:`~repro.pbs.job.JobRow` record instead, and every other frame is a
registered record too. Each driver of ``perf/workloads.py`` runs here at
quick scale, in this process, with a spy on :meth:`Network.send` that
walks every payload — records, containers, and the value inside each
pre-encoded :class:`~repro.net.codec.Fragment` — and counts the dicts.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.net.codec import WIRE, Fragment
from repro.net.network import Network

PERF = Path(__file__).resolve().parents[2] / "perf"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "_perf_workloads", PERF / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


def _walk(payload, counts: dict) -> None:
    stack = [payload]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            counts["dict"] += 1
            stack.extend(value.keys())
            stack.extend(value.values())
        elif type(value) is Fragment:
            counts["fragment"] += 1
            stack.append(WIRE.decode(value._wire))
        elif isinstance(value, (tuple, list)):
            stack.extend(value)
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            stack.extend(getattr(value, f.name) for f in dataclasses.fields(value))


@pytest.mark.parametrize("workload", sorted(WORKLOADS.DRIVERS))
def test_no_dict_crosses_the_wire(workload, monkeypatch):
    counts = {"dict": 0, "fragment": 0}
    send = Network.send

    def spy(self, src, dst, payload):
        _walk(payload, counts)
        return send(self, src, dst, payload)

    monkeypatch.setattr(Network, "send", spy)
    plan = WORKLOADS.PLANS[workload](11, "quick")
    run = WORKLOADS.Run(workload, plan)
    WORKLOADS.DRIVERS[workload](plan, run, None, observers=False)
    assert not run.gate_errors and not run.violations
    # Every workload ships scheduler-poll rows, so the walk reached them.
    assert counts["fragment"] > 0
    assert counts["dict"] == 0
