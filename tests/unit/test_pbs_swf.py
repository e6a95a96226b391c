"""Tests for SWF trace import/export."""

import pytest

from repro.cluster import Cluster
from repro.pbs import JobSpec, build_pbs_stack
from repro.pbs.job import Job, JobState
from repro.pbs.swf import export_swf, parse_swf, workload_from_swf
from repro.util.errors import PBSError

SAMPLE = """\
; Sample from a parallel workloads archive file
; Version: 2.2
1 0 10 3600 64 -1 -1 64 7200 -1 1 17 -1 -1 2 -1 -1 -1
2 120 5 600 8 -1 -1 8 1800 -1 0 17 -1 -1 2 -1 -1 -1
3 300 -1 -1 -1 -1 -1 16 3600 -1 5 3 -1 -1 1 -1 -1 -1
"""


def make_completed_job(seq, submit, start, end, *, nodes=1, exit_status=0):
    job = Job(f"{seq}.t", JobSpec(name=f"j{seq}", nodes=nodes, walltime=end - start),
              submit_time=submit)
    job = job.transition(JobState.RUNNING, start_time=start,
                         exec_nodes=tuple(f"c{i}" for i in range(nodes)),
                         run_count=1)
    return job.transition(JobState.COMPLETE, end_time=end, exit_status=exit_status)


class TestParse:
    def test_sample_parses(self):
        records = parse_swf(SAMPLE)
        assert len(records) == 3
        first = records[0]
        assert first.job_number == 1
        assert first.run_time == 3600
        assert first.requested_procs == 64
        assert first.status == 1  # completed

    def test_status_codes(self):
        records = parse_swf(SAMPLE)
        assert [r.status for r in records] == [1, 0, 5]

    def test_comments_and_blanks_skipped(self):
        records = parse_swf("; c\n\n" + SAMPLE)
        assert len(records) == 3

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(PBSError, match="line 2"):
            parse_swf("; header\n1 2 3\n")

    def test_non_numeric_field(self):
        bad = "1 0 x 3600 64 -1 -1 64 7200 -1 1 17 -1 -1 2 -1 -1 -1"
        with pytest.raises(PBSError):
            parse_swf(bad)


class TestExport:
    def test_roundtrip(self):
        jobs = [
            make_completed_job(1, 100.0, 110.0, 170.0),
            make_completed_job(2, 130.0, 175.0, 300.0, nodes=2),
        ]
        text = export_swf(jobs)
        records = parse_swf(text)
        assert len(records) == 2
        assert records[0].submit_time == 0.0  # rebased to trace start
        assert records[1].submit_time == 30.0
        assert records[0].wait_time == 10.0
        assert records[0].run_time == 60.0
        assert records[1].requested_procs == 2

    def test_incomplete_jobs_skipped(self):
        running = Job("3.t", JobSpec(), submit_time=0.0).transition(
            JobState.RUNNING, start_time=1.0
        )
        text = export_swf([make_completed_job(1, 0, 1, 2), running])
        assert len(parse_swf(text)) == 1

    def test_status_mapping(self):
        ok = make_completed_job(1, 0, 1, 2)
        failed = make_completed_job(2, 0, 1, 2, exit_status=7)
        killed = make_completed_job(3, 0, 1, 2, exit_status=271)
        records = parse_swf(export_swf([ok, failed, killed]))
        assert [r.status for r in records] == [1, 0, 5]

    def test_header_present(self):
        text = export_swf([make_completed_job(1, 0, 1, 2)])
        assert text.startswith("; SWF trace")
        assert "; MaxJobs: 1" in text

    def test_empty_export(self):
        assert parse_swf(export_swf([])) == []


class TestWorkloadFromSWF:
    def test_basic_conversion(self):
        workload = workload_from_swf(SAMPLE)
        entries = list(workload)
        assert len(entries) == 3
        # First entry: delay from t=0, 3600 s of actual runtime.
        delay0, spec0 = entries[0]
        assert delay0 == 0.0
        assert spec0.walltime == 3600.0

    def test_clamping_and_limits(self):
        workload = workload_from_swf(SAMPLE, max_nodes=4)
        entries = list(workload)
        assert len(entries) == 3
        assert all(spec.nodes <= 4 for _d, spec in entries)

    def test_time_scale(self):
        # Submission times replay at the trace's own scale, in seconds.
        workload = workload_from_swf(SAMPLE)
        entries = list(workload)
        total = sum(d for d, _s in entries)
        assert total == pytest.approx(300.0)

    def test_requested_time_fallback(self):
        # Job 3 has run_time -1: falls back to its requested 3600 s.
        workload = workload_from_swf(SAMPLE)
        _d, spec = list(workload)[2]
        assert spec.walltime == 3600.0


class TestEndToEnd:
    def test_run_then_export_then_replay(self):
        """Run jobs on the simulator, export the history as SWF, rebuild a
        workload from it, and replay it — the full interoperability loop."""
        cluster = Cluster(head_count=1, compute_count=2, seed=8)
        stack = build_pbs_stack(cluster)
        client = stack.client()

        def submit_all():
            for i in range(3):
                yield from client.qsub(name=f"orig{i}", walltime=2.0)

        process = cluster.kernel.spawn(submit_all())
        cluster.run(until=process)
        cluster.run(until=60.0)

        text = export_swf(stack.server.jobs.snapshot())
        workload = workload_from_swf(text, max_nodes=2)
        assert len(workload) == 3

        # Replay on a fresh cluster.
        cluster2 = Cluster(head_count=1, compute_count=2, seed=9)
        stack2 = build_pbs_stack(cluster2)
        client2 = stack2.client()

        def replay():
            for delay, spec in workload:
                if delay:
                    yield cluster2.kernel.timeout(delay)
                yield from client2.qsub(spec)

        process2 = cluster2.kernel.spawn(replay())
        cluster2.run(until=process2)
        cluster2.run(until=cluster2.kernel.now + 60.0)
        assert stack2.server.stats["completed"] == 3
