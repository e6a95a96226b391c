"""What the observers emit, pinned byte for byte.

The collector, the flight recorder and the time-series sampler keep compact
state while a run is going and format records only when they are read:
spans hold tuples, not dicts, a postmortem bundle holds the ring entries it
captured, and a histogram window holds its nonzero bucket deltas. The
digests in ``tests/data/golden_digests.json`` (``"obs"``) were taken when
every observer still formatted on observe, so they hold the read-side
formatting to exactly the bytes the eager one wrote:

* the JSONL of ``collector_records`` (spans, job traces, then the metrics
  snapshot of ``metric_records``) followed by ``TimeSeriesSampler.records()``;
* a ``write_bundle`` of every bundle the run captured plus one forced
  ``FlightRecorder.capture`` at its end;
* the ``top_table`` of ``TimeSeriesSampler.records()``.

Two fixed-seed chaos runs are pinned (``golden.OBS_RUNS``): one ordering
group with a read mix (unlabelled series, the read path, timed-out
conversations) and two ordering groups (``shard=``-labelled series). The
runs are the ``golden_digests`` entry's own, made once per session; refresh
with ``python tools/golden.py update golden_digests``.
"""

import json

import pytest

import golden


@pytest.mark.parametrize("output", ["bundles", "records", "top"])
@pytest.mark.parametrize("run", sorted(golden.OBS_RUNS))
def test_observer_output_is_byte_identical(run, output):
    fresh = json.loads(golden.produce("golden_digests"))["obs"][run]
    assert fresh[output] == golden.committed("golden_digests")["obs"][run][output]
