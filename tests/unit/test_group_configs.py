"""The named group configurations, pinned field by field.

``JOSHUA_GROUP_CONFIG``, ``FAST_GROUP_CONFIG``, ``CHAOS_GROUP`` and
``BATCHED_GROUP_CONFIG`` are inputs of the benchmark (``perf/workloads.py``),
of the pinned wire baseline and of every ``BENCH_*.json`` figure, and several
of them — and every scenario builder below — are ``dataclasses.replace``
expressions over another. A changed base would move all of those silently;
here it fails with the field named. Each derived expression is checked
against the literal ``GroupConfig(...)`` call it replaced.
"""

from dataclasses import asdict

import pytest

from repro.bench.experiments import ablations
from repro.bench.experiments.throughput import BATCHED_GROUP_CONFIG
from repro.faults import runner
from repro.faults.runner import CHAOS_GROUP
from repro.gcs.batching import DATA_BATCH_MAX_BYTES, DATA_BATCH_MAX_MSGS
from repro.gcs.config import FAST_GROUP_CONFIG, GroupConfig
from repro.gcs.ordering import SEQUENCER_BATCH_MAX
from repro.joshua import trace
from repro.joshua.config import JOSHUA_GROUP_CONFIG

_DEFAULTS = dict(
    group_id=0, shard_count=1,
    heartbeat_interval=0.25, suspect_timeout=0.75, flush_timeout=1.0,
    retransmit_interval=0.05, ordering="sequencer",
    sequencer_batch_delay=0.0,
    data_batch_delay=0.0, data_batch_min_delay=0.0,
    processing_delay=0.0, stable_ack_base=0.0, stable_ack_slot=0.0,
    gc_interval=5.0,
)
_JOSHUA = dict(
    _DEFAULTS, flush_timeout=1.5, retransmit_interval=0.10,
    processing_delay=0.010, stable_ack_base=0.098, stable_ack_slot=0.040,
)


@pytest.mark.parametrize("config, fields", [
    (JOSHUA_GROUP_CONFIG, _JOSHUA),
    (FAST_GROUP_CONFIG, dict(
        _DEFAULTS, heartbeat_interval=0.1, suspect_timeout=0.35,
        flush_timeout=0.8, retransmit_interval=0.05,
    )),
    (CHAOS_GROUP, dict(
        _DEFAULTS, heartbeat_interval=0.1, suspect_timeout=0.6,
        flush_timeout=1.0, retransmit_interval=0.05, gc_interval=2.0,
    )),
    (BATCHED_GROUP_CONFIG, dict(
        _JOSHUA, data_batch_delay=0.005, data_batch_min_delay=0.001,
        sequencer_batch_delay=0.005,
    )),
], ids=["joshua", "fast", "chaos", "batched"])
def test_named_config_field_values(config, fields):
    assert asdict(config) == fields


def test_batch_budgets_keep_the_values_their_fields_held():
    assert (DATA_BATCH_MAX_MSGS, DATA_BATCH_MAX_BYTES) == (16, 1200)
    assert SEQUENCER_BATCH_MAX == 16


class _Built(Exception):
    """Carries the configuration a scenario builder was about to deploy."""


def _batching_at_20ms(monkeypatch):
    # A non-default delay: FAST_GROUP_CONFIG's own 0.0 would pass even if
    # the sweep stopped applying it.
    monkeypatch.setattr(ablations, "BATCH_DELAYS", (0.02,))
    ablations.sequencer_batching()


@pytest.mark.parametrize("module, seam, build, literal", [
    (trace, "build_joshua_stack",
     lambda _mp: trace.run_traced_scenario(ordering="token"),
     GroupConfig(
         heartbeat_interval=0.25, suspect_timeout=0.75, flush_timeout=1.5,
         retransmit_interval=0.10, ordering="token", processing_delay=0.010,
         stable_ack_base=0.098, stable_ack_slot=0.040,
     )),
    (runner, "build_joshua_stack",
     lambda _mp: runner.run_chaos(seed=0),
     GroupConfig(
         heartbeat_interval=0.1, suspect_timeout=0.6, flush_timeout=1.0,
         retransmit_interval=0.05, ordering="sequencer",
         sequencer_batch_delay=0.005, data_batch_delay=0.005,
         data_batch_min_delay=0.001, gc_interval=2.0,
     )),
    (runner, "build_joshua_stack",
     lambda _mp: runner.run_chaos(seed=0, ordering="token"),
     GroupConfig(
         heartbeat_interval=0.1, suspect_timeout=0.6, flush_timeout=1.0,
         retransmit_interval=0.05, ordering="token",
         sequencer_batch_delay=0.0, data_batch_delay=0.005,
         data_batch_min_delay=0.001, gc_interval=2.0,
     )),
    (ablations, "build_joshua_stack",
     lambda _mp: ablations.stable_slot_sweep(),
     GroupConfig(
         heartbeat_interval=0.25, suspect_timeout=0.75, flush_timeout=1.5,
         retransmit_interval=0.10, processing_delay=0.010,
         stable_ack_base=0.098, stable_ack_slot=0.0,
     )),
    (ablations, "_multicast_latency",
     lambda _mp: ablations.ordering_engine_latency(),
     GroupConfig(
         heartbeat_interval=0.1, suspect_timeout=0.35, flush_timeout=0.8,
         retransmit_interval=0.05, ordering="sequencer",
     )),
    (ablations, "_group",
     _batching_at_20ms,
     GroupConfig(
         heartbeat_interval=0.1, suspect_timeout=0.35, flush_timeout=0.8,
         retransmit_interval=0.05, sequencer_batch_delay=0.02,
     )),
], ids=["trace", "chaos", "chaos-token", "slot-sweep", "engines", "batching"])
def test_derived_config_equals_the_literal_it_replaced(
    module, seam, build, literal, monkeypatch
):
    def stop(*args, **kwargs):
        raise _Built(kwargs.get("group_config") or args[1])

    monkeypatch.setattr(module, seam, stop)
    with pytest.raises(_Built) as built:
        build(monkeypatch)
    assert built.value.args[0] == literal
