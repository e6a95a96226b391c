"""Tests for the time-series sampler: windowing, deltas, the top table.

The sampler is pure delta arithmetic over the registry, driven by the
kernel's ``on_advance`` hook — so every behaviour is testable by mutating
metrics and advancing a fake clock: per-window counter increments and
rates, gauge dedup, histogram per-window percentiles from bucket deltas,
idle-window elision, eviction, the shard filter, and attachment plumbing
on a real kernel.
"""

from repro.net import Network
from repro.obs.collector import attach_collector, collector_of
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesSampler, attach_timeseries, top_table
from repro.sim import Kernel


def make_sampler(**attributes):
    registry = MetricsRegistry()
    sampler = TimeSeriesSampler(registry)
    for name, value in attributes.items():
        setattr(sampler, name, value)
    return registry, sampler


class TestWindowing:
    def test_counter_samples_are_per_window_deltas(self):
        registry, sampler = make_sampler()
        counter = registry.counter("gcs.multicasts", node="head0")
        counter.inc()
        counter.inc()
        sampler.on_advance(1.5)  # crosses into window 1: closes window 0
        counter.inc()
        records = sampler.records()
        assert [r["value"] for r in records] == [2, 1]
        assert records[0]["window_start"] == 0.0
        assert records[0]["window_end"] == 1.0
        assert records[0]["rate"] == 2.0
        assert records[1]["window_start"] == 1.0

    def test_idle_series_emit_nothing(self):
        registry, sampler = make_sampler()
        registry.counter("quiet").inc()
        sampler.on_advance(1.1)
        sampler.on_advance(9.9)  # many empty windows in between
        records = sampler.records()
        assert len(records) == 1

    def test_gauge_sampled_only_on_change(self):
        registry, sampler = make_sampler()
        gauge = registry.gauge("backlog", node="head0")
        gauge.set(5)
        sampler.on_advance(1.1)
        sampler.on_advance(2.1)  # unchanged: no new sample
        gauge.set(3)
        records = sampler.records()
        assert [r["value"] for r in records] == [5, 3]
        assert all(r["metric"] == "gauge" for r in records)

    def test_histogram_percentiles_are_per_window(self):
        registry, sampler = make_sampler()
        hist = registry.histogram("lat", node="head0")
        for _ in range(10):
            hist.observe(0.002)  # fast window
        sampler.on_advance(1.2)
        for _ in range(10):
            hist.observe(1.0)  # slow window
        samples = sampler.records()
        fast, slow = samples
        assert fast["count"] == 10 and slow["count"] == 10
        assert fast["p99"] <= 0.01
        # the slow window's percentile reflects only its own observations,
        # not the run-to-date aggregate
        assert slow["p50"] >= 0.5
        assert slow["mean"] == 1.0

    def test_finish_is_idempotent(self):
        registry, sampler = make_sampler()
        registry.counter("c").inc()
        sampler.finish()
        sampler.finish()
        assert len(sampler.samples) == 1

    def test_custom_window_length(self):
        registry, sampler = make_sampler(window=0.5)
        counter = registry.counter("c")
        counter.inc()
        sampler.on_advance(0.6)
        records = sampler.records()
        assert records[0]["window_end"] == 0.5
        assert records[0]["rate"] == 2.0  # 1 increment / 0.5 s

    def test_eviction_counts_dropped_samples(self):
        registry, sampler = make_sampler(max_samples=2)
        counter = registry.counter("c")
        for window in range(4):
            counter.inc()
            sampler.on_advance(window + 1.1)
        assert len(sampler.samples) == 2
        assert sampler.dropped_samples == 2
        # survivors are the newest windows
        assert sampler.records()[-1]["window_end"] == 4.0


class TestTopTable:
    def fill(self, sampler, registry):
        busy = registry.counter("busy", node="head0", shard=0)
        quiet = registry.counter("quiet", node="head1", shard=1)
        for window in range(3):
            busy.value += 10
            quiet.value += 1
            sampler.on_advance(window + 1.1)

    def test_busiest_series_first_with_labels(self):
        registry, sampler = make_sampler()
        self.fill(sampler, registry)
        lines = top_table(sampler.records())
        text = "\n".join(lines)
        assert "busy{node=head0,shard=0}" in text
        assert text.index("busy{") < text.index("quiet{")

    def test_shard_filter(self):
        registry, sampler = make_sampler()
        self.fill(sampler, registry)
        text = "\n".join(top_table(sampler.records(), shard=1))
        assert "quiet" in text and "busy" not in text

    def test_empty_sampler_renders_placeholder(self):
        _, sampler = make_sampler()
        assert top_table(sampler.records()) == ["  (no time-series samples)"]


class TestAttachment:
    def make_network(self):
        kernel = Kernel()
        network = Network(kernel)
        network.register_node("head0")
        return kernel, network

    def test_attach_rides_kernel_advance(self):
        kernel, network = self.make_network()
        sampler = attach_timeseries(network)
        collector = attach_collector(network)
        collector.registry.counter("c").inc()

        def ticker():
            yield kernel.timeout(1.5)
            collector.registry.counter("c").inc()
            yield kernel.timeout(1.0)

        kernel.spawn(ticker())
        kernel.run()
        records = sampler.records()
        assert [r["value"] for r in records] == [1, 1]

    def test_attach_is_idempotent(self):
        kernel, network = self.make_network()
        sampler = attach_timeseries(network)
        assert attach_timeseries(network) is sampler
        assert collector_of(network).sampler is sampler
        assert kernel.on_advance.count(sampler.on_advance) == 1
