"""Passivity proof: observation leaves the simulation bit-identical.

The obs layer's hard contract (ISSUE 3, extended by ISSUE 8): attaching
the full observation stack — TraceCollector + MetricsRegistry, and now
the FlightRecorder and TimeSeriesSampler on top — must not schedule a
simulation event, draw randomness, or change a wire payload. These tests
run the three wire-baseline scenarios of :mod:`repro.analysis.wiretrace`
(normal operation, membership churn, partition + heal) fully observed and
demand that the wire digest, frame and byte counts, clock and kernel event
count equal the pinned ``tests/data/wire_baseline.json`` — the very record
the unobserved build is held to. Two scenarios the baseline does not pin
(membership churn on two ordering groups, and a read-heavy gateway run) are
run twice, bare and observed, and must agree with each other exactly.

Each observed run also has to produce non-trivial traces, metrics, ring
contents and time-series samples, so an observer that silently observes
nothing cannot pass vacuously.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import wiretrace
from repro.obs import attach_collector, attach_recorder, attach_timeseries
from tests.integration.conftest import drive, make_stack

PINNED = json.loads(
    (Path(__file__).parents[1] / "data" / "wire_baseline.json").read_text()
)


def _scenario_read_heavy(stack):
    """The split command plane under load: gateway sessions submit then
    hammer the local read path (ryw), including a fallback
    (an unreachable floor) — so ``joshua.read.*`` spans, metrics and the
    catch-up/fallback branches are all on the observed path."""
    gateway = stack.gateway()
    sessions = [gateway.session("login", f"client{i}") for i in range(3)]
    for i, session in enumerate(sessions):
        drive(stack, session.jsub(name=f"r{i}", walltime=2.0))
    for session in sessions:
        for _ in range(3):
            drive(stack, session.jstat())
    # One read that cannot be served locally in time: ordered fallback.
    sessions[0].client.last_write_seq[0] = 10_000
    drive(stack, sessions[0].jstat())
    stack.cluster.run(until=25.0)


#: (scenario function, ordering-layer shard count). The first three are
#: compared with the pinned baseline; the sharded entry proves passivity of
#: the whole observation stack — shard-labelled spans/metrics included — on
#: the multi-group deployment under faults, the read-heavy entry proves it
#: for the local read path (ISSUE 10).
SCENARIOS = {
    **{name: (scenario, 1) for name, scenario in wiretrace.SCENARIOS.items()},
    "sharded-membership": (wiretrace.SCENARIOS["membership"], 2),
    "read-heavy": (_scenario_read_heavy, 1),
}


def _run(scenario: str, *, observed: bool):
    run_scenario, shards = SCENARIOS[scenario]
    stack = wiretrace.make_stack(shards)
    lines = wiretrace.spy_network(stack)
    network = stack.cluster.network
    observers = None
    if observed:
        observers = (
            attach_collector(network),
            attach_recorder(network),
            attach_timeseries(network),
        )
    run_scenario(stack)
    return wiretrace.trace_record(stack, lines), dict(network.stats), observers


class TestObservationIsPassive:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_trace_bit_identical_with_and_without_observers(self, scenario):
        observed, net, observers = _run(scenario, observed=True)

        # The observed run really observed something...
        collector, recorder, sampler = observers
        assert collector.jobs, "no job traces collected"
        assert any(t.phases() for t in collector.job_traces())
        assert collector.registry.find("rpc.client.latency_s")
        assert collector.registry.find("gcs.multicasts")
        # ...the recorder's rings hold spans AND wire frames per node...
        assert recorder.observed > 0
        records = recorder.capture("test", "read the rings")["records"]
        head_rings = [[r for r in records if r["node"] == f"head{i}"]
                      for i in range(3)]
        assert all(head_rings)
        assert any(r["type"] == "frame"
                   for ring in head_rings for r in ring)
        # ...the sampler produced per-window series...
        assert sampler.records()
        if scenario == "read-heavy":
            # Local reads, the ordered fallback and the ryw wait histogram
            # all surfaced as metrics — observed without perturbation.
            assert collector.registry.find("joshua.read.local")
            assert collector.registry.find("joshua.read.ordered_fallback")
            assert collector.registry.find("joshua.read.catchup_wait_s")
            assert collector.registry.find("joshua.read.staleness_lag")
            # ...and the time-series sampler windows them automatically.
            assert any(
                s["name"].startswith("joshua.read") for s in sampler.records()
            )
        if scenario.startswith("sharded"):
            assert {0, 1} <= {
                s["labels"].get("shard") for s in sampler.records()
            }
            assert collector.registry.find("gcs.fd.transitions")

        # ...and perturbed nothing: every datagram, timestamp and counter
        # matches the unobserved run exactly — the pinned one where the
        # baseline has the scenario, a bare run of the same seed otherwise.
        if scenario in PINNED:
            assert observed == PINNED[scenario]
        else:
            assert (observed, net) == _run(scenario, observed=False)[:2]


class TestCollectorLifecycle:
    def test_attach_is_idempotent(self):
        from repro.rpc import rpc_state

        stack = make_stack(heads=2, computes=1, seed=5)
        network = stack.cluster.network
        collector = attach_collector(network)
        assert attach_collector(network) is collector
        state = rpc_state(network)
        assert state.on_request.count(collector.rpc_request) == 1
        assert state.on_dispatch.count(collector.rpc_dispatch) == 1
