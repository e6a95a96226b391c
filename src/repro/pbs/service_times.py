"""Calibrated service-time constants for the circa-2006 testbed.

The paper's hardware was dual Pentium III 450 MHz with local IDE disks and
Fast Ethernet. Absolute times in this reproduction come from these constants
— fitted once so that the *single-head plain-TORQUE* baseline lands near the
paper's measured 98 ms submission latency and 93-102 ms/job burst throughput
(Figures 10 and 11) — after which every multi-head number is a prediction of
the model, not a fit (see EXPERIMENTS.md for the comparison).

Breakdown behind the qsub figure: a ``qsub`` on that era's hardware spends
most of its time forking/execing the client binary and parsing, then a
server round trip with queue insert and a synchronous write of the job file
to ``server_priv``. We split 98 ms as ~42 ms client start + ~0.5 ms LAN round
trip + ~40 ms server processing + ~15 ms synchronous disk write.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServiceTimes", "ERA_2006"]


@dataclass(frozen=True)
class ServiceTimes:
    """Processing costs (seconds) charged by the PBS daemons and clients."""

    #: Client-binary startup + argument parsing + connect (qsub/qstat/...).
    client_startup: float = 0.042
    #: Server-side handling of a job submission (queue insert, validation).
    qsub_process: float = 0.040
    #: Synchronous job-file write to server_priv on submission/state change.
    disk_write: float = 0.015
    #: Server-side handling of a status query (no disk).
    qstat_process: float = 0.012
    #: Server-side handling of a deletion / hold / release / signal.
    qdel_process: float = 0.020
    #: Server work to dispatch a job to a mom.
    run_process: float = 0.010
    #: Mom-side prologue/startup cost before user code runs.
    mom_start: float = 0.030
    #: Mom-side epilogue + obituary preparation after user code exits.
    mom_finish: float = 0.020
    #: Scheduler poll period (Maui's RMPOLLINTERVAL, scaled down).
    sched_poll_interval: float = 0.100
    #: Scheduler decision time per cycle.
    sched_cycle: float = 0.005


#: The default: fitted to the paper's testbed (see module docstring).
ERA_2006 = ServiceTimes()
