"""Unit tests for the obs layer's data structures and export surfaces.

Covers the numeric half (Counter/Gauge/Histogram/MetricsRegistry), the
trace half (TraceEvent/JobTrace phase decomposition), the JSONL export
(discriminated ``type`` records, repr-degradation of non-JSON values,
time-ordered span/log merge) and the text report helpers the CLI prints.
The collector's end-to-end behaviour against a live stack is covered by
``tests/integration/test_obs_passive.py``; here everything is driven with
hand-built values so each contract is pinned in isolation.
"""

import json

import pytest

from repro.obs.events import PHASE_ORDER, JobTrace, TraceEvent
from repro.obs.export import collector_records, dumps_record, merged_records, write_jsonl
from repro.obs.metrics import (
    ATTEMPT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.report import (
    format_table,
    job_timeline_lines,
    phase_breakdown_lines,
    rpc_latency_lines,
)
from repro.util.simlog import SimLogger


class TestCounterAndGauge:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc()
        assert c.value == 2
        assert c.snapshot() == {"type": "counter", "value": 2}

    def test_gauge_keeps_last_value(self):
        g = Gauge()
        g.set(3.5)
        g.set(1.0)
        assert g.value == 1.0
        assert g.snapshot() == {"type": "gauge", "value": 1.0}


class TestHistogram:
    def test_observations_land_in_first_covering_bucket(self):
        h = Histogram(buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            h.observe(value)
        assert h.counts == [1, 1, 1]
        assert h.overflow == 1
        assert h.count == 4
        assert h.min == 0.005
        assert h.max == 5.0
        assert h.mean == pytest.approx((0.005 + 0.05 + 0.5 + 5.0) / 4)

    def test_percentile_stays_inside_the_covering_bucket(self):
        h = Histogram(buckets=(0.01, 0.1, 1.0))
        for _ in range(9):
            h.observe(0.005)
        h.observe(0.5)
        assert 0.005 <= h.percentile(50) <= 0.01
        assert 0.1 < h.percentile(100) <= 0.5  # clamped to the observed max

    def test_quantile_of_all_overflow_falls_back_to_max(self):
        h = Histogram(buckets=(0.01,))
        h.observe(7.0)
        h.observe(9.0)
        assert h.percentile(1) == h.percentile(95) == 9.0

    def test_empty_histogram_summary_is_zeroes(self):
        s = Histogram().summary()
        assert s == {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                     "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_percentile_interpolates_within_bucket(self):
        # 100 observations uniform in the (0, 1.0] bucket of a (1.0, 2.0)
        # histogram: p50 should land mid-bucket, not at the bound.
        h = Histogram(buckets=(1.0, 2.0))
        for i in range(100):
            h.observe((i + 1) / 100.0)
        p50 = h.percentile(50)
        assert 0.4 <= p50 <= 0.6          # interpolated

    def test_percentile_is_clamped_to_observed_min_and_max(self):
        h = Histogram(buckets=(1.0,))
        h.observe(0.7)
        h.observe(0.9)
        assert h.percentile(1) >= 0.7
        assert h.percentile(99) <= 0.9

    def test_percentile_of_overflow_rank_is_observed_max(self):
        h = Histogram(buckets=(0.01,))
        h.observe(7.0)
        assert h.percentile(99) == 7.0

    def test_percentile_orders_p50_p95_p99(self):
        h = Histogram()
        for i in range(200):
            h.observe(0.001 * (i + 1))
        assert h.percentile(50) <= h.percentile(95) <= h.percentile(99)

    def test_percentile_rejects_out_of_range(self):
        h = Histogram()
        h.observe(0.5)
        with pytest.raises(ValueError):
            h.percentile(0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_summary_percentiles_use_interpolation(self):
        h = Histogram(buckets=(1.0, 2.0))
        for i in range(100):
            h.observe((i + 1) / 100.0)
        s = h.summary()
        assert s["p50"] == h.percentile(50)
        assert s["p99"] == h.percentile(99)
        assert s["p50"] < 1.0

    def test_buckets_are_sorted_regardless_of_input_order(self):
        h = Histogram(buckets=(1.0, 0.01, 0.1))
        assert h.bounds == (0.01, 0.1, 1.0)

    def test_attempt_buckets_cover_retry_policies(self):
        h = Histogram(buckets=ATTEMPT_BUCKETS)
        h.observe(3)
        assert h.counts[ATTEMPT_BUCKETS.index(3.0)] == 1


class TestMetricsRegistry:
    def test_same_name_and_labels_return_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a", x="1") is reg.counter("a", x="1")
        assert reg.counter("a", x="1") is not reg.counter("a", x="2")
        assert reg.histogram("h", phase="run") is reg.histogram("h", phase="run")

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        assert reg.counter("a", x="1", y="2") is reg.counter("a", y="2", x="1")

    def test_find_returns_label_metric_pairs(self):
        reg = MetricsRegistry()
        reg.counter("rpc", request="Ping").value += 2
        reg.counter("rpc", request="Stat").inc()
        reg.counter("other").inc()
        pairs = reg.find("rpc")
        assert [labels for labels, _ in pairs] == [
            {"request": "Ping"}, {"request": "Stat"}
        ]
        assert [m.value for _, m in pairs] == [2, 1]

    def test_names_and_snapshot_are_sorted_and_serialisable(self):
        reg = MetricsRegistry()
        reg.gauge("z.depth", node="a").set(3)
        reg.counter("a.count").inc()
        reg.histogram("m.lat", request="Ping").observe(0.02)
        snap = reg.snapshot()
        assert [r["name"] for r in snap] == ["a.count", "m.lat", "z.depth"]
        json.dumps(snap)  # must be JSON-native end to end
        hist = snap[1]
        assert hist["type"] == "histogram"
        assert hist["labels"] == {"request": "Ping"}
        assert hist["count"] == 1


def _trace():
    """A hand-built jsub lifecycle covering every phase edge."""
    trace = JobTrace("jsub-login-1")
    trace.command = "jsub"
    trace.job_id = "1.head0"
    times = {
        "job.sent": 0.0, "job.received": 0.010, "job.ordered": 0.030,
        "job.executed": 0.080, "job.acked": 0.100, "job.jmutex": 0.120,
        "job.decided": 0.150, "job.launched": 0.160, "job.obit": 1.200,
    }
    for kind, t in times.items():
        trace.events.append(TraceEvent(t, kind, "head0", "jsub-login-1"))
    return trace


class TestJobTrace:
    def test_phases_measured_between_first_occurrences(self):
        trace = _trace()
        phases = trace.phases()
        assert phases["submit_rpc"] == pytest.approx(0.100)
        assert phases["ordering"] == pytest.approx(0.020)
        assert phases["execute"] == pytest.approx(0.050)
        assert phases["run"] == pytest.approx(1.040)
        assert set(phases) == set(PHASE_ORDER)

    def test_missing_edges_yield_partial_phases(self):
        trace = JobTrace("jstat-login-2")
        trace.events.append(TraceEvent(0.0, "job.sent", "login", trace.trace_id))
        trace.events.append(TraceEvent(0.05, "job.acked", "login", trace.trace_id))
        assert trace.phases() == {"submit_rpc": pytest.approx(0.05)}

    def test_duplicate_kinds_use_first_occurrence(self):
        trace = JobTrace("t")
        trace.events.append(TraceEvent(0.0, "job.sent", "login", "t"))
        trace.events.append(TraceEvent(0.1, "job.acked", "login", "t"))
        trace.events.append(TraceEvent(9.0, "job.acked", "login", "t"))
        assert trace.phases()["submit_rpc"] == pytest.approx(0.1)

    def test_to_dict_is_discriminated_and_serialisable(self):
        d = _trace().to_dict()
        assert d["type"] == "job"
        assert d["command"] == "jsub"
        assert d["job_id"] == "1.head0"
        assert len(d["events"]) == 9
        json.dumps(d)


class TestExport:
    def test_dumps_record_degrades_non_json_values_to_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        line = dumps_record({"time": 1.0, "value": Opaque()})
        assert json.loads(line)["value"] == "<opaque>"

    def test_write_jsonl_one_object_per_line_with_trailing_newline(self, tmp_path):
        path = tmp_path / "records.jsonl"
        assert write_jsonl(path, [{"a": 1}, {"b": 2}]) == 2
        text = path.read_text()
        assert text.endswith("\n")
        assert [json.loads(l) for l in text.splitlines()] == [{"a": 1}, {"b": 2}]
        assert write_jsonl(path, []) == 0
        assert path.read_text() == ""

    def test_merged_records_interleaves_spans_and_logs_by_time(self):
        logger = SimLogger(lambda: 0.0)
        clock = [0.0]
        logger._clock = lambda: clock[0]
        clock[0] = 0.05
        logger.warning("gcs", "view installed")

        class FakeCollector:
            events = [
                TraceEvent(0.01, "job.sent", "login", "u1"),
                TraceEvent(0.09, "job.acked", "login", "u1"),
            ]

        merged = merged_records(FakeCollector(), logger)
        assert [r["type"] for r in merged] == ["span", "log", "span"]
        assert [r["time"] for r in merged] == [0.01, 0.05, 0.09]

    def test_collector_records_appends_jobs_and_metrics(self):
        registry = MetricsRegistry()
        registry.counter("gcs.delivered", node="head0").value += 3

        class FakeCollector:
            events = [TraceEvent(0.01, "job.sent", "login", "u1")]

            def __init__(self):
                self.registry = registry

            def job_traces(self):
                return [_trace()]

        records = collector_records(FakeCollector())
        assert [r["type"] for r in records] == ["span", "job", "metric"]
        assert records[2]["name"] == "gcs.delivered"


class TestReport:
    def test_format_table_aligns_columns(self):
        lines = format_table(["name", "n"], [["ordering", "12"], ["run", "3"]])
        assert lines[0].split() == ["name", "n"]
        assert lines[2].startswith("  ordering  12")
        assert all(line.startswith("  ") for line in lines)

    def test_job_timeline_lines_show_events_and_phases(self):
        lines = job_timeline_lines(_trace())
        assert lines[0] == "jsub jsub-login-1 -> 1.head0"
        assert any("job.ordered" in line for line in lines)
        assert lines[-1].lstrip().startswith("phases:")
        assert "submit_rpc=100.00ms" in lines[-1]

    def test_phase_breakdown_orders_rows_by_lifecycle(self):
        registry = MetricsRegistry()
        registry.histogram("job.phase_s", phase="run").observe(1.0)
        registry.histogram("job.phase_s", phase="ordering").observe(0.02)
        lines = phase_breakdown_lines(registry)
        body = "\n".join(lines)
        assert body.index("ordering") < body.index("run")

    def test_phase_breakdown_empty_registry(self):
        assert phase_breakdown_lines(MetricsRegistry()) == [
            "  (no job phases observed)"
        ]

    def test_rpc_latency_table_includes_retries_and_timeouts(self):
        registry = MetricsRegistry()
        registry.histogram("rpc.client.latency_s", request="JSubReq").observe(0.04)
        registry.counter("rpc.client.retries", request="JSubReq").value += 2
        registry.counter("rpc.client.timeouts", request="JSubReq").inc()
        lines = rpc_latency_lines(registry)
        row = next(line for line in lines if "JSubReq" in line)
        cells = row.split()
        assert cells[:4] == ["JSubReq", "1", "2", "1"]

    def test_rpc_latency_table_empty_registry(self):
        assert rpc_latency_lines(MetricsRegistry()) == [
            "  (no rpc conversations observed)"
        ]


class TestSimLoggerExport:
    def test_to_jsonl_round_trips_with_repr_degradation(self):
        logger = SimLogger(lambda: 1.25)

        class Addr:
            def __repr__(self):
                return "head0:15001"

        logger.warning("rpc", "sent", dst=Addr())
        record = json.loads(dumps_record(logger.to_dicts()[0]))
        assert record["type"] == "log"
        assert record["time"] == 1.25
        assert record["fields"]["dst"] == "head0:15001"
