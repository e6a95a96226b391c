"""Standard Workload Format (SWF) import/export.

SWF is the Parallel Workloads Archive's interchange format — one line per
job, 18 whitespace-separated fields, ``;`` comment header. Supporting it
makes the reproduction interoperable with two decades of published HPC
traces:

* :func:`export_swf` turns a PBS server's completed history into an SWF
  trace (what a site would publish);
* :func:`parse_swf` / :func:`workload_from_swf` load a trace — archived or
  exported — as a replayable workload, so the benches can drive JOSHUA
  with real submission patterns instead of synthetic ones.

Field reference (0-based index, SWF v2.2):

====  =====================  =============================================
  0   job number             sequential, 1-based
  1   submit time            seconds since trace start
  2   wait time              submit -> start (−1 unknown)
  3   run time               start -> end (−1 unknown)
  4   used processors        (−1 unknown)
  5   avg CPU time           −1 (not modelled)
  6   used memory            −1 (not modelled)
  7   requested processors
  8   requested time         walltime limit, seconds
  9   requested memory       −1
 10   status                 1 completed, 0 failed, 5 cancelled
 11   user id                numeric (hashed from the owner name)
 12   group id               −1
 13   executable number      −1
 14   queue number           numeric (hashed from the queue name)
 15   partition number       −1
 16   preceding job          −1
 17   think time             −1
====  =====================  =============================================
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.pbs.job import Job, JobSpec, JobState, KILLED_EXIT_STATUS
from repro.util.errors import PBSError

__all__ = ["SWFJob", "export_swf", "parse_swf", "workload_from_swf"]

_FIELD_COUNT = 18


@dataclass(frozen=True)
class SWFJob:
    """One parsed SWF record (the fields this library uses)."""

    job_number: int
    submit_time: float
    wait_time: float
    run_time: float
    requested_procs: int
    requested_time: float
    status: int

    @property
    def completed(self) -> bool:
        return self.status == 1


def _stable_id(name: str) -> int:
    return zlib.crc32(name.encode("utf-8")) % 9973


def _status_of(job: Job) -> int:
    if job.exit_status == KILLED_EXIT_STATUS or "deleted" in job.comment:
        return 5  # cancelled
    if job.exit_status == 0:
        return 1  # completed
    return 0  # failed


#: The site name an exported trace's header carries.
SITE = "repro-joshua"


def export_swf(jobs: list[Job]) -> str:
    """Render finished *jobs* as an SWF trace (submission order).

    Jobs that never reached COMPLETE are skipped — SWF records history,
    not live state. Submit times are rebased so that the first submission
    is t=0.
    """
    finished = sorted(
        (j for j in jobs if j.state is JobState.COMPLETE),
        key=lambda j: (j.submit_time, j.sequence),
    )
    origin = finished[0].submit_time if finished else 0.0
    lines = [
        f"; SWF trace exported by {SITE}",
        "; Version: 2.2",
        f"; Computer: simulated Beowulf cluster ({SITE})",
        "; Acknowledge: JOSHUA reproduction (IEEE CLUSTER 2006)",
        f"; MaxJobs: {len(finished)}",
    ]
    for number, job in enumerate(finished, start=1):
        submit = job.submit_time - origin
        wait = (job.start_time - job.submit_time) if job.start_time is not None else -1
        run = (
            (job.end_time - job.start_time)
            if job.start_time is not None and job.end_time is not None
            else -1
        )
        fields = [
            number,
            _fmt(submit),
            _fmt(wait),
            _fmt(run),
            len(job.exec_nodes) or -1,
            -1,
            -1,
            job.spec.nodes,
            _fmt(job.spec.walltime),
            -1,
            _status_of(job),
            _stable_id(job.spec.owner),
            -1,
            -1,
            _stable_id(job.spec.queue),
            -1,
            -1,
            -1,
        ]
        lines.append(" ".join(str(f) for f in fields))
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.3f}"


def parse_swf(text: str) -> list[SWFJob]:
    """Parse SWF text into records; raises :class:`PBSError` on malformed
    lines (with line numbers, because archive files do get mangled)."""
    records: list[SWFJob] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        parts = line.split()
        if len(parts) != _FIELD_COUNT:
            raise PBSError(
                f"SWF line {lineno}: expected {_FIELD_COUNT} fields, got {len(parts)}"
            )
        try:
            records.append(
                SWFJob(
                    job_number=int(parts[0]),
                    submit_time=float(parts[1]),
                    wait_time=float(parts[2]),
                    run_time=float(parts[3]),
                    requested_procs=int(parts[7]),
                    requested_time=float(parts[8]),
                    status=int(parts[10]),
                )
            )
        except ValueError as exc:
            raise PBSError(f"SWF line {lineno}: {exc}") from exc
    return records


def workload_from_swf(text: str, *, max_nodes: int | None = None):
    """Build a replayable :class:`~repro.bench.workloads.TraceWorkload`.

    Requested node counts are clamped to ``max_nodes`` (the simulated
    cluster is usually smaller than the traced one). Runtime uses the
    trace's *actual* run time when known, else the requested limit.
    """
    from repro.bench.workloads import TraceWorkload

    entries = []
    for record in parse_swf(text):
        nodes = max(1, record.requested_procs)
        if max_nodes is not None:
            nodes = min(nodes, max_nodes)
        runtime = record.run_time if record.run_time > 0 else record.requested_time
        if runtime <= 0:
            runtime = 60.0
        entries.append(
            (
                record.submit_time,
                JobSpec(name=f"swf-{record.job_number}", nodes=nodes, walltime=runtime),
            )
        )
    return TraceWorkload(tuple(entries))
