"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure10_defaults(self):
        args = build_parser().parse_args(["figure10"])
        assert args.trials == 10 and args.seed == 1

    def test_figure11_jobs_list(self):
        args = build_parser().parse_args(["figure11", "--jobs", "5", "25"])
        assert args.jobs == [5, 25]

    def test_figure12_flags(self):
        args = build_parser().parse_args(
            ["figure12", "--mttf", "1000", "--empirical", "--years", "50"]
        )
        assert args.mttf == 1000.0 and args.empirical and args.years == 50.0

    def test_ablations_choices(self):
        assert build_parser().parse_args(["ablations"]).which == "all"
        assert build_parser().parse_args(["ablations", "slot"]).which == "slot"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablations", "bogus"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure13"])

    def test_chaos_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos"])

    def test_chaos_run_defaults(self):
        args = build_parser().parse_args(["chaos", "run"])
        assert args.seed == 0 and args.heads == 3 and args.ordering == "sequencer"
        assert args.schedule is None

    def test_chaos_run_flags(self):
        args = build_parser().parse_args(
            ["chaos", "run", "--seed", "9", "--ordering", "token",
             "--schedule", "scenario.json", "--duration", "12.5"]
        )
        assert args.seed == 9 and args.ordering == "token"
        assert args.schedule == "scenario.json" and args.duration == 12.5

    def test_chaos_soak_runs_flag(self):
        args = build_parser().parse_args(["chaos", "soak", "--runs", "3"])
        assert args.runs == 3 and args.chaos_command == "soak"

    def test_chaos_run_jsonl_flag(self):
        args = build_parser().parse_args(
            ["chaos", "run", "--jsonl", "out.jsonl"]
        )
        assert args.jsonl == "out.jsonl"

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.seed == 7 and args.heads == 3 and args.computes == 2
        assert args.jobs == 3 and args.ordering == "sequencer"
        assert args.jsonl is None and not args.rpc

    def test_trace_flags(self):
        args = build_parser().parse_args(
            ["trace", "--seed", "3", "--jobs", "1", "--ordering", "token",
             "--rpc", "--jsonl", "trace.jsonl"]
        )
        assert args.seed == 3 and args.jobs == 1 and args.ordering == "token"
        assert args.rpc and args.jsonl == "trace.jsonl"

    def test_trace_shard_flags(self):
        args = build_parser().parse_args(["trace"])
        assert args.shards == 1 and args.shard is None
        args = build_parser().parse_args(
            ["trace", "--shards", "2", "--shard", "1"]
        )
        assert args.shards == 2 and args.shard == 1

    def test_chaos_run_shard_and_postmortem_flags(self):
        args = build_parser().parse_args(["chaos", "run"])
        assert args.shards == 1 and args.postmortem_dir == "."
        args = build_parser().parse_args(
            ["chaos", "run", "--shards", "2", "--shard", "0",
             "--postmortem-dir", "bundles"]
        )
        assert args.shards == 2 and args.shard == 0
        assert args.postmortem_dir == "bundles"

    def test_postmortem_requires_bundle(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["postmortem"])
        args = build_parser().parse_args(
            ["postmortem", "b.jsonl", "--limit", "5"]
        )
        assert args.bundle == "b.jsonl" and args.limit == 5


class TestCommands:
    def test_figure12_output(self, capsys):
        assert main(["figure12"]) == 0
        out = capsys.readouterr().out
        assert "5d 4h 21min" in out
        assert "Figure 12" in out

    def test_figure12_empirical_output(self, capsys):
        assert main(["figure12", "--empirical", "--years", "200"]) == 0
        out = capsys.readouterr().out
        assert "Monte-Carlo" in out

    def test_correlated_output(self, capsys):
        assert main(["correlated"]) == 0
        out = capsys.readouterr().out
        assert "Diminishing returns" in out
        assert "correlated_nines" in out

    def test_figure10_small(self, capsys):
        assert main(["figure10", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "JOSHUA/TORQUE" in out

    def test_ablation_single_section(self, capsys):
        assert main(["ablations", "detection"]) == 0
        out = capsys.readouterr().out
        assert "suspect timeout" in out
        assert "batching" not in out

    def test_compare_output(self, capsys):
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        for model in ("single", "active_standby", "asymmetric", "symmetric"):
            assert model in out

    def test_trace_output_and_jsonl(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.jsonl"
        code = main([
            "trace", "--seed", "7", "--jobs", "1", "--rpc",
            "--jsonl", str(out_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        # Per-job causal timeline with the lifecycle spans...
        for kind in ("job.sent", "job.ordered", "job.executed", "job.acked",
                     "job.launched", "job.obit"):
            assert kind in out
        assert "phases:" in out
        # ...the Figure-10 phase table and the per-request RPC table.
        assert "per-phase latency breakdown" in out
        assert "ordering" in out
        assert "rpc conversations" in out
        assert "JSubReq" in out
        # Single-group run: wire-bytes and time-series tables render, the
        # per-shard table stays out of the way.
        assert "wire bytes by message type:" in out
        assert "busiest time series (per 1s window):" in out
        assert "per-shard ordering pipeline" not in out
        # JSONL export: every line parses; all discriminators present,
        # including the sampler's windows.
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert {"span", "job", "metric", "timeseries"} <= {
            r["type"] for r in records
        }

    def test_trace_sharded_output(self, capsys):
        assert main(["trace", "--seed", "7", "--jobs", "2", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "shards=2" in out
        assert "per-shard ordering pipeline:" in out
        # both ordering groups carried traffic
        shard_rows = [
            ln for ln in out.splitlines()
            if ln.strip() and ln.strip()[0].isdigit() and "ms" in ln
        ]
        assert len(shard_rows) >= 2

    def test_chaos_run_from_schedule_file(self, capsys, tmp_path):
        from repro.faults import FaultSchedule

        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            FaultSchedule().crash(4.0, "head1").restart(8.0, "head1").to_json()
        )
        code = main([
            "chaos", "run", "--schedule", str(scenario),
            "--seed", "11", "--duration", "12", "--jobs", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "zero invariant violations" in out
        assert "wire bytes by message type:" in out
        assert "busiest time series (per 1s window):" in out

    def test_write_postmortems_names_and_round_trips(self, tmp_path):
        from types import SimpleNamespace

        from repro.cli import _write_postmortems
        from repro.obs.recorder import read_bundle

        bundle = {
            "type": "postmortem", "reason": "invariant:total-order",
            "detail": "planted", "time": 1.5, "nodes": ["head0"],
            "record_count": 1,
            "records": [{"type": "frame", "time": 1.0, "node": "head0",
                         "kind": "DataMsg", "src": "head0", "dst": "head1",
                         "size": 64}],
        }
        report = SimpleNamespace(seed=11, postmortems=[bundle, dict(bundle)])
        paths = _write_postmortems(report, str(tmp_path))
        assert [p.rsplit("/", 1)[-1] for p in paths] == [
            "postmortem-11-0.jsonl", "postmortem-11-1.jsonl"
        ]
        assert read_bundle(paths[0])["reason"] == "invariant:total-order"

    def test_postmortem_rejects_non_bundle_file(self, tmp_path, capsys):
        bogus = tmp_path / "trace.jsonl"
        bogus.write_text('{"type": "span"}\n')
        assert main(["postmortem", str(bogus)]) == 2
        assert "error:" in capsys.readouterr().out

    @pytest.mark.parametrize("text, line", [
        ("[1, 2]\n", 1),
        ('{"type": "postmortem"}\n\n[3]\n', 3),
    ], ids=["array-header", "array-record"])
    def test_postmortem_rejects_a_line_that_is_not_an_object(
            self, tmp_path, capsys, text, line):
        bogus = tmp_path / "bundle.jsonl"
        bogus.write_text(text)
        assert main(["postmortem", str(bogus)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error:")
        assert f"line {line}" in out and str(bogus) in out
