"""PBS-compliant job and resource management — the TORQUE/Maui stand-in.

The paper treats the job/resource manager as a black box reached only
through the PBS service interface (that is the whole point of JOSHUA's
*external* replication). This package reproduces that black box:

* :class:`~repro.pbs.server.PBSServer` — the TORQUE ``pbs_server``
  equivalent: job queue with PBS states (Q/R/E/C/H/W), persistence to the
  node's disk, job dispatch to moms, obituary handling.
* :class:`~repro.pbs.scheduler.MauiScheduler` — the Maui equivalent,
  configured exactly as the paper configured it: FIFO policy, one job at a
  time with exclusive access to the whole cluster, for deterministic
  scheduling and allocation across replicated servers.
* :class:`~repro.pbs.mom.PBSMom` — the per-compute-node execution daemon.
  Supports the TORQUE v2.0p1 multi-server feature the prototype relied on:
  one mom reports to *every* head node's server. Prologue hooks are where
  JOSHUA's ``jmutex`` distributed mutual exclusion plugs in.
* :class:`~repro.pbs.commands.PBSClient` — the ``qsub``/``qstat``/``qdel``/
  ``qsig``/``qhold``/``qrls`` user commands.
* :class:`~repro.pbs.service_times.ServiceTimes` — the calibrated
  circa-2006 processing costs that make the single-head baseline land near
  the paper's 98 ms submission latency.

A complete single-head stack is assembled by
:func:`~repro.pbs.stack.build_pbs_stack`.
"""

from repro.pbs.job import Job, JobSpec, JobState
from repro.pbs.queue import JobQueue
from repro.pbs.service_times import ServiceTimes
from repro.pbs.server import PBSServer
from repro.pbs.scheduler import MauiScheduler
from repro.pbs.mom import PBSMom
from repro.pbs.commands import PBSClient
from repro.pbs.stack import build_pbs_stack, PBSStack
from repro.pbs.swf import export_swf, parse_swf, workload_from_swf

__all__ = [
    "Job",
    "JobSpec",
    "JobState",
    "JobQueue",
    "ServiceTimes",
    "PBSServer",
    "MauiScheduler",
    "PBSMom",
    "PBSClient",
    "build_pbs_stack",
    "PBSStack",
    "export_swf",
    "parse_swf",
    "workload_from_swf",
]
