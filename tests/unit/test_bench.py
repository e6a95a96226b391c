"""Unit tests for the benchmark harness (workloads, metrics, reporting)."""

import pytest

from repro.bench import (
    BurstWorkload,
    LatencySample,
    PoissonWorkload,
    TraceWorkload,
    format_table,
    summarize,
)
from repro.bench.workloads import OpenLoopWorkload
from repro.bench.reporting import BAR_WIDTH, bar_chart
from repro.pbs.job import JobSpec
from repro.util.errors import ReproError


class TestBurstWorkload:
    def test_zero_delays(self):
        entries = list(BurstWorkload(5))
        assert len(entries) == 5
        assert all(delay == 0.0 for delay, _spec in entries)

    def test_specs_named_sequentially(self):
        entries = list(BurstWorkload(3, walltime=7.0))
        assert [s.name for _d, s in entries] == ["job0000", "job0001", "job0002"]
        assert all(s.walltime == 7.0 for _d, s in entries)

    def test_len(self):
        assert len(BurstWorkload(10)) == 10

    def test_validation(self):
        with pytest.raises(ReproError):
            BurstWorkload(0)


class TestPoissonWorkload:
    def test_deterministic_given_seed(self):
        a = [(d, s.walltime) for d, s in PoissonWorkload(10, 1.0, seed=4)]
        b = [(d, s.walltime) for d, s in PoissonWorkload(10, 1.0, seed=4)]
        assert a == b

    def test_mean_interarrival(self):
        delays = [d for d, _s in PoissonWorkload(2000, rate=2.0, seed=1)]
        mean = sum(delays) / len(delays)
        assert mean == pytest.approx(0.5, rel=0.1)

    def test_walltime_range_respected(self):
        for _d, spec in PoissonWorkload(100, 1.0, walltime_range=(2.0, 3.0), seed=2):
            assert 2.0 <= spec.walltime <= 3.0

    def test_validation(self):
        with pytest.raises(ReproError):
            PoissonWorkload(0, 1.0)
        with pytest.raises(ReproError):
            PoissonWorkload(1, 0.0)
        with pytest.raises(ReproError):
            PoissonWorkload(1, 1.0, walltime_range=(5.0, 2.0))


class TestTraceWorkload:
    def test_relative_delays(self):
        trace = TraceWorkload(((1.0, JobSpec(name="a")), (4.0, JobSpec(name="b"))))
        entries = list(trace)
        assert [d for d, _s in entries] == [1.0, 3.0]

    def test_sorts_entries(self):
        trace = TraceWorkload(((4.0, JobSpec(name="b")), (1.0, JobSpec(name="a"))))
        assert [s.name for _d, s in trace] == ["a", "b"]

    def test_len(self):
        assert len(TraceWorkload(())) == 0


class TestMetrics:
    def test_summary_statistics(self):
        samples = [LatencySample(0.0, 0.1), LatencySample(1.0, 1.3), LatencySample(2.0, 2.2)]
        stats = summarize(samples)
        assert stats.count == 3
        assert stats.mean == pytest.approx(0.2)
        assert stats.median == pytest.approx(0.2)
        assert stats.minimum == pytest.approx(0.1)
        assert stats.maximum == pytest.approx(0.3)

    def test_as_dict_milliseconds(self):
        stats = summarize([LatencySample(0.0, 0.098)])
        assert stats.as_dict()["mean_ms"] == 98.0

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            summarize([])

    def test_latency_property(self):
        assert LatencySample(1.0, 1.5).latency == pytest.approx(0.5)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": "xx"}, {"a": 222, "b": "y"}])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert len({len(line) for line in lines}) == 1  # aligned columns

    def test_title_and_empty(self):
        assert "T" in format_table([], title="T")
        assert format_table([{"x": 1}], title="Header").startswith("Header")

    def test_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_bar_chart_scales_to_peak(self):
        rows = [{"k": "a", "v": 50.0}, {"k": "b", "v": 100.0}]
        text = bar_chart(rows, label="k", series=["v"])
        lines = [l for l in text.splitlines() if "|" in l]
        assert lines[0].count("#") == BAR_WIDTH // 2
        assert lines[1].count("#") == BAR_WIDTH

    def test_bar_chart_multi_series_shared_scale(self):
        rows = [{"k": "x", "a": 25.0, "b": 100.0}]
        text = bar_chart(rows, label="k", series=["a", "b"])
        lines = [l for l in text.splitlines() if "|" in l]
        assert lines[0].count("#") == BAR_WIDTH // 4
        assert lines[1].count("#") == BAR_WIDTH

    def test_bar_chart_skips_missing_values(self):
        rows = [{"k": "x", "a": 10.0, "b": None}]
        text = bar_chart(rows, label="k", series=["a", "b"])
        assert "b" not in [l.split()[0] for l in text.splitlines() if "|" in l]

    def test_bar_chart_empty(self):
        assert "(no data)" in bar_chart([], label="k", series=["v"], title="T")

    def test_bar_chart_minimum_one_hash(self):
        rows = [{"k": "tiny", "v": 0.001}, {"k": "huge", "v": 1000.0}]
        text = bar_chart(rows, label="k", series=["v"])
        lines = [l for l in text.splitlines() if "|" in l]
        assert lines[0].count("#") >= 1


class TestOpenLoopWorkload:
    def test_deterministic_given_seed(self):
        a = list(OpenLoopWorkload(50, 10.0, read_fraction=0.5, seed=3))
        b = list(OpenLoopWorkload(50, 10.0, read_fraction=0.5, seed=3))
        assert a == b

    def test_times_are_absolute_and_increasing(self):
        times = [r.time for r in OpenLoopWorkload(200, 20.0, seed=1)]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_mean_rate(self):
        requests = list(OpenLoopWorkload(4000, rate=50.0, seed=2))
        assert requests[-1].time == pytest.approx(4000 / 50.0, rel=0.1)

    def test_read_fraction(self):
        requests = list(OpenLoopWorkload(
            2000, 100.0, read_fraction=0.75, seed=4,
        ))
        reads = sum(1 for r in requests if r.kind == "jstat")
        assert reads / len(requests) == pytest.approx(0.75, abs=0.05)
        for request in requests:
            if request.kind == "jstat":
                assert request.spec is None
            else:
                assert request.kind == "jsub" and request.spec is not None

    def test_clients_attributed_across_population(self):
        requests = list(OpenLoopWorkload(500, 50.0, clients=10, seed=5))
        assert {r.client for r in requests} == set(range(10))

    def test_walltimes_heavy_tailed_and_capped(self):
        workload = OpenLoopWorkload(
            2000, 100.0, walltime_scale=10.0, walltime_cap=500.0, seed=6,
        )
        walltimes = [r.spec.walltime for r in workload if r.kind == "jsub"]
        assert min(walltimes) >= 10.0  # scale * (1 + Lomax >= 0)
        assert max(walltimes) <= 500.0
        assert max(walltimes) == 500.0  # the tail really reaches the cap
        # Most jobs are small: the median sits far below the cap.
        assert sorted(walltimes)[len(walltimes) // 2] < 50.0

    def test_len(self):
        assert len(OpenLoopWorkload(42, 1.0)) == 42

    def test_validation(self):
        with pytest.raises(ReproError):
            OpenLoopWorkload(0, 1.0)
        with pytest.raises(ReproError):
            OpenLoopWorkload(1, 0.0)
        with pytest.raises(ReproError):
            OpenLoopWorkload(1, 1.0, read_fraction=1.5)
        with pytest.raises(ReproError):
            OpenLoopWorkload(1, 1.0, clients=0)


class TestExperimentSmoke:
    """Fast sanity runs of the experiment drivers (the full-scale runs'
    claims are asserted in ``test_figure_claims.py``)."""

    def test_figure10_single_point(self):
        from repro.bench.experiments.latency import measure_torque_latency
        latency = measure_torque_latency(trials=3)
        assert 0.085 <= latency <= 0.115

    def test_figure11_single_point(self):
        from repro.bench.experiments.throughput import measure_burst
        elapsed = measure_burst("TORQUE", 1, 10)
        assert 0.8 <= elapsed <= 1.3

    def test_figure11_burst_batching_reduced_scale(self):
        """CI smoke for the batching ablation at reduced scale. Every
        DataBatchMsg that crosses the wire is codec-decoded at delivery,
        so a batch encode/decode regression *fails this run* instead of
        silently skewing the full bench."""
        from repro.bench.experiments.throughput import burst_batching_ablation
        result = burst_batching_ablation(heads=3, jobs=12, seed=1)
        batched = result["batched"]["wire_bytes_by_type"]
        assert batched.get("DataBatchMsg", 0) > 0  # burst actually coalesced
        assert result["reduction_pct"] > 0
        # All 12 commands committed in both arms (delivery completed).
        assert result["unbatched"]["jobs"] == result["batched"]["jobs"] == 12

    def test_shard_scaling_reduced_scale(self):
        """CI smoke for the sharding extension: a small burst still shows
        2 shards out-committing 1, and the sequencer-kill run still shows
        the undisturbed shard committing while the victim shard stalls."""
        from repro.bench.experiments.sharding import (
            measure_shard_burst,
            sequencer_kill,
        )
        one = measure_shard_burst(1, heads=3, jobs=12, seed=1)
        two = measure_shard_burst(2, heads=3, jobs=12, seed=1)
        assert one["committed"] == two["committed"] == 12
        assert two["committed_per_s"] > one["committed_per_s"]
        assert two["per_shard_committed"] == [6, 6]

        kill = sequencer_kill(shards=2, heads=3, seed=1)
        windows = kill["windows"]
        assert windows["sequencer_dead"]["committed"][1] == 0
        assert windows["sequencer_dead"]["committed"][0] > 0
        assert windows["after_failover"]["committed"][1] > 0
        assert kill["new_shard1_sequencer"] != kill["victim_sequencer"]

    def test_read_scaling_reduced_scale(self):
        """CI smoke for the read-path extension: at reduced scale the
        saturated local-read QPS still doubles from 1 to 2 heads, every
        read completes, and reads are answered locally (not via the
        ordered fallback). The write-within-10% claim needs the full
        bench's sample size and is asserted only there."""
        from repro.bench.experiments.read_scaling import read_scaling
        result = read_scaling(
            head_counts=(1, 2), duration=3.0, read_rate=300.0,
            write_rate=3.0, seed=1,
        )
        by_heads = {row["heads"]: row for row in result["rows"]}
        assert result["read_qps_speedup"] >= 1.5, result
        assert by_heads[2]["read_qps"] > by_heads[1]["read_qps"], result
        for row in result["rows"]:
            assert row["reads_failed"] == 0, row
            assert row["reads_fallback"] == 0, row
            assert row["reads_local"] == row["reads_completed"], row
            assert row["write_committed"] > 0, row

    def test_figure12_rows(self):
        from repro.bench.experiments.availability import figure12
        rows = figure12()
        assert [r["nodes"] for r in rows] == [1, 2, 3, 4]
        assert rows[3]["downtime"] == "1s"

    def test_model_comparison_single_model(self, monkeypatch):
        from repro.bench.experiments import models
        monkeypatch.setattr(models, "HORIZON", 120.0)
        report = models.run_model("symmetric", jobs=5)
        assert report.submitted == 5
        assert report.lost == 0
