#!/usr/bin/env python3
"""Compare the four HA models under an identical failure.

The paper's §2 taxonomy (Figures 1-4), measured: the same Poisson stream of
job submissions and the same head-node crash/repair schedule run against

  single          — traditional Beowulf, one head node
  active_standby  — warm standby, checkpoints to shared storage, failover
  asymmetric      — two uncoordinated active heads, round-robin clients
  symmetric       — JOSHUA (this paper)

The table quantifies the qualitative claims: failover cuts the outage from
"the whole repair" to seconds but rolls back and restarts applications;
asymmetric keeps the *service* up but loses the failed head's queue until
repair; symmetric active/active loses nothing at all.

Run:  python examples/failover_comparison.py
"""

from repro.bench.experiments.models import (
    CRASH_AT, JOBS, MODELS, RATE, RESTART_AT, run_model,
)
from repro.bench.reporting import format_table


def main() -> None:
    print(f"scenario: Poisson submissions ({JOBS} jobs, ~1 every {1 / RATE:g} s); "
          f"head0 crashes at t={CRASH_AT:g} s, repaired at t={RESTART_AT:g} s\n")
    rows = []
    for model in MODELS:
        report = run_model(model)
        rows.append(report.summary_row())
        print(f"  ran {model:15s} "
              f"downtime={report.probe_downtime:6.2f}s "
              f"lost={report.lost} restarted={report.restarted}")
    print()
    print(format_table(rows, title="HA model comparison (identical workload + fault)"))
    print(
        "\nReading guide:\n"
        "  downtime_s      service unreachable (probe failures x interval)\n"
        "  lost            jobs the system forgot (rollback to checkpoint)\n"
        "  restarted       jobs whose application re-ran from scratch\n"
        "  submit_failures user commands that errored/timed out\n"
    )


if __name__ == "__main__":
    main()
