"""What the observers emit, pinned byte for byte.

The collector, the flight recorder and the time-series sampler keep compact
state while a run is going and format records only when they are read. The
digests below were taken when every observer still formatted on observe, so
they hold the read-side formatting to exactly the bytes the eager one wrote:

* the JSONL of ``collector_records`` (spans, job traces, then the metrics
  snapshot of ``metric_records``) followed by ``TimeSeriesSampler.records()``;
* a ``write_bundle`` of every bundle the run captured plus one forced
  ``FlightRecorder.capture`` at its end;
* the ``top_table`` of ``TimeSeriesSampler.records()``.

Two fixed-seed chaos runs are pinned: one ordering group with a read mix
(unlabelled series, the read path, timed-out conversations) and two ordering
groups (``shard=``-labelled series).
"""

import hashlib

import pytest

from repro.faults import runner
from repro.obs.export import collector_records, dumps_record
from repro.obs.recorder import write_bundle
from repro.obs.timeseries import top_table

RUNS = {
    "one-group": dict(seed=1, jobs=12, duration=25.0, read_mix=0.5),
    "two-groups": dict(seed=7, jobs=8, duration=20.0, shards=2),
}

DIGESTS = {
    "one-group": {
        "records": "5ac321aef52a61215ffb5b8139eced8502fb4e9bc7bd1cdd3a533b59fa893e09",
        "bundles": "828c4d3d109bd56cfe1d1ebb4b3fd1ba17d95e43021f6cddd43fd59f512e617f",
        "top": "ae53d509c28c55c45fe343c35b3ea4f761d1677e16ec92ae96337b0cd32d23a7",
    },
    "two-groups": {
        "records": "19e9adfe3fb49b41df7a30a7b7de6d28f9cd310bc96e87eab18ff83891ebe7d4",
        "bundles": "09239305ec6228dbd09b5bbc97784aebfcbf9ffdcb8cf09e292387db6b015007",
        "top": "475277248a8e38e93058d062d6845ac82414a4117b22e933776c21cce8e15b3a",
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module", params=sorted(RUNS))
def observed(request, tmp_path_factory):
    """(run name, digests) of one chaos run, its observers read at the end."""
    collectors = []
    attach = runner.attach_collector

    def spy(network, **kwargs):
        collector = attach(network, **kwargs)
        collectors.append(collector)
        return collector

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "attach_collector", spy)
        report = runner.run_chaos(**RUNS[request.param])
    assert report.ok
    [collector] = collectors
    sampler = collector.sampler
    records = collector_records(collector) + sampler.records()

    recorder = collector.recorder
    bundles = list(report.postmortems)
    bundles.append(recorder.capture("golden", "forced at the end of the run"))
    directory = tmp_path_factory.mktemp(request.param)
    written = []
    for index, bundle in enumerate(bundles):
        path = directory / f"bundle-{index}.jsonl"
        write_bundle(bundle, path)
        written.append(path.read_text())

    return request.param, {
        "records": _sha("".join(dumps_record(r) + "\n" for r in records)),
        "bundles": _sha("".join(written)),
        "top": _sha("\n".join(top_table(sampler.records()))),
    }


@pytest.mark.parametrize("output", ["records", "bundles", "top"])
def test_observer_output_is_byte_identical(observed, output):
    name, digests = observed
    assert digests[output] == DIGESTS[name][output], (name, digests)
