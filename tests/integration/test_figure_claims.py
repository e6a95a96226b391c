"""The claims of the paper's figures and of their extensions, asserted.

Where a figure is a golden entry (``tools/golden.py``: the four
``BENCH_*.json``, ``tests/data/endurance.json``,
``tests/data/trace_replay.json``), its claims are asserted over the
committed payload: the golden check holds the payload to what the tree
produces, and these tests hold the payload to what the paper or the
extension claims, so an ``update`` that would commit a broken claim fails
here. The remaining tables are cheap enough to run fresh (about 6 s in
all). No bound was loosened on the way from the old pytest-benchmark
wrappers; a wrapper's wall-clock timing is what ``perf/`` measures.
"""

import golden
from repro.bench.experiments.ablations import (
    failure_detection_sweep,
    ordering_engine_latency,
    sequencer_batching,
    stable_slot_sweep,
)
from repro.bench.experiments.availability import (
    PAPER_FIGURE12,
    figure12,
    figure12_empirical,
)
from repro.bench.experiments.latency import PAPER_FIGURE10, figure10
from repro.bench.experiments.models import compare_models
from repro.bench.experiments.throughput import PAPER_FIGURE11, figure11
from repro.cluster.cluster import Cluster
from repro.gcs.config import FAST_GROUP_CONFIG
from repro.gcs.member import GroupMember, boot_static_group
from repro.joshua.deploy import build_joshua_stack
from repro.net.network import Network
from repro.pvfs import PVFSClient, build_replicated_mds
from repro.sim.kernel import Kernel


def test_figure10_shape_and_absolute_band():
    """Paper: TORQUE 98 ms; JOSHUA/TORQUE 134/265/304/349 ms for 1-4 heads.
    Modest on-node overhead, a large jump going off-node, then a roughly
    constant increment per added head."""
    by_heads = {(r["system"], r["heads"]): r["measured_ms"]
                for r in figure10(trials=10)}
    torque = by_heads[("TORQUE", 1)]
    # Anchor: the calibrated baseline is near the paper's 98 ms.
    assert 85 <= torque <= 115
    # Shape: strictly increasing with head count.
    joshua = [by_heads[("JOSHUA/TORQUE", n)] for n in (1, 2, 3, 4)]
    assert joshua == sorted(joshua)
    # Single-head JOSHUA overhead is modest (paper: 37 %).
    assert 1.15 <= joshua[0] / torque <= 1.7
    # Going off-node costs more than any subsequent head (paper: +131 vs +39/+45).
    assert (joshua[1] - joshua[0]) > (joshua[2] - joshua[1])
    # Every row within 2x of the paper's absolute number.
    for (system, heads), paper_ms in PAPER_FIGURE10.items():
        measured = by_heads[(system, heads)]
        assert 0.5 <= measured / paper_ms <= 2.0, (system, heads, measured)


def test_figure11_linear_in_batch_and_growing_with_heads():
    """Paper: TORQUE 0.93/4.95/10.18 s; JOSHUA 1.32/6.48/14.08 s on one head
    rising to 3.62/17.65/33.32 s on four."""
    by_config = {(r["system"], r["heads"]): r for r in figure11()}
    # Linear in batch size: 100 jobs ~ 10x the 10-job time (sequential client).
    for config, row in by_config.items():
        ratio = row["measured_100_s"] / row["measured_10_s"]
        assert 8.0 <= ratio <= 12.0, (config, ratio)
    # Grows with head count for every batch size.
    for jobs in (10, 50, 100):
        series = [by_config[("JOSHUA/TORQUE", n)][f"measured_{jobs}_s"] for n in (1, 2, 3, 4)]
        assert series == sorted(series)
    # TORQUE beats JOSHUA at equal head count (replication is not free).
    assert (
        by_config[("TORQUE", 1)]["measured_100_s"]
        < by_config[("JOSHUA/TORQUE", 1)]["measured_100_s"]
    )
    # Absolute numbers within 2x of the paper everywhere.
    for (system, heads), paper_row in PAPER_FIGURE11.items():
        for jobs, paper_s in paper_row.items():
            measured = by_config[(system, heads)][f"measured_{jobs}_s"]
            assert 0.5 <= measured / paper_s <= 2.0, (system, heads, jobs, measured)
    # The paper's headline: 100 jobs on 4 heads in ~33 s.
    assert by_config[("JOSHUA/TORQUE", 4)]["measured_100_s"] < 50.0


def test_figure11_burst_batching_halves_the_wire():
    """``BENCH_fig11.json``: burst offered load, batching off vs on."""
    result = golden.committed("BENCH_fig11")
    off, on = result["unbatched"], result["batched"]
    # Headline: >= 25% fewer wire bytes per committed command.
    assert result["reduction_pct"] >= 25.0, result
    # The wire evidence: the burst rides coalesced DATA frames — batch
    # frames carry most of the DATA bytes, per-frame overhead amortized.
    off_data = off["wire_bytes_by_type"].get("DataMsg", 0)
    on_plain = on["wire_bytes_by_type"].get("DataMsg", 0)
    on_batch = on["wire_bytes_by_type"].get("DataBatchMsg", 0)
    assert off["wire_bytes_by_type"].get("DataBatchMsg", 0) == 0
    assert on_batch > 0 and on_batch > on_plain
    assert on_plain + on_batch < off_data
    # Committed throughput did not regress: the burst finishes no slower.
    assert on["elapsed_s"] <= off["elapsed_s"] * 1.1


def test_figure12_analytic_matches_the_paper():
    """Paper (MTTF 5000 h, MTTR 72 h): 98.6 % / 99.98 % / 99.9997 % /
    99.999996 %, downtimes 5d 4h 21min / 1h 45min / 1min 30s / 1s."""
    for row in figure12():
        paper_pct, paper_nines, paper_downtime = PAPER_FIGURE12[row["nodes"]]
        assert row["nines"] == paper_nines
        assert row["downtime"] == paper_downtime
        # Availability agrees at the paper's printed precision.
        printed = round(row["availability_pct"], max(1, paper_nines + 1))
        assert abs(printed - paper_pct) < 10 ** (-(paper_nines - 1)) or printed == paper_pct


def test_figure12_monte_carlo_agrees_with_the_closed_form():
    for row in figure12_empirical(horizon_years=3000.0):
        if row["nodes"] <= 2:
            # Plenty of events: tight agreement.
            assert abs(row["empirical_pct"] - row["analytic_pct"]) < 0.05
        else:
            # Triple overlaps are rare; demand the right order of magnitude.
            emp_down = 100.0 - row["empirical_pct"]
            ana_down = 100.0 - row["analytic_pct"]
            assert emp_down < ana_down * 20 + 1e-6


def test_ha_models_rank_as_the_paper_argues():
    """Identical Poisson workload and head crash across the four models:
    downtime single >> active/standby > asymmetric > symmetric (~0)."""
    rows = compare_models()
    by_model = {row["model"]: row for row in rows}
    single = by_model["single"]
    standby = by_model["active_standby"]
    symmetric = by_model["symmetric"]

    # Symmetric active/active: continuous availability, no losses.
    assert symmetric["downtime_s"] == 0.0
    assert symmetric["lost"] == 0
    assert symmetric["restarted"] == 0
    assert symmetric["submit_failures"] == 0

    # The single head is down for the whole repair window.
    assert single["downtime_s"] > 30.0
    assert single["submit_failures"] > 0

    # Failover shortens the outage by an order of magnitude but does not
    # eliminate it, and it restarts the running application.
    assert 1.0 < standby["downtime_s"] < single["downtime_s"] / 3
    assert standby["restarted"] >= 1

    # Every model eventually completes what it kept.
    for row in rows:
        assert row["completed"] == row["submitted"] - row["lost"]


class TestAblations:
    def test_sequencer_orders_faster_than_the_token(self):
        for row in ordering_engine_latency(trials=10):
            # The sequencer orders on arrival; the token must rotate to the
            # sender — strictly worse latency at every group size.
            assert row["sequencer_ms"] < row["token_ms"]

    def test_order_batching_trades_burst_latency(self):
        times = [row["burst_time_ms"] for row in sequencer_batching()]
        assert times == sorted(times)

    def test_view_change_follows_the_suspect_timeout(self):
        rows = failure_detection_sweep()
        changes = [row["view_change_s"] for row in rows]
        assert all(v is not None for v in changes)
        assert changes == sorted(changes)
        for row in rows:
            # View change completes within a small multiple of the timeout.
            assert row["view_change_s"] <= row["suspect_timeout_s"] * 3 + 0.5

    def test_stability_ack_slot_drives_jsub_latency(self):
        latencies = [row["jsub_ms"] for row in stable_slot_sweep()]
        # The slot is the dominant per-head latency knob: monotone (within a
        # small tolerance for the slot<=base region where the base gates).
        assert latencies[-1] > latencies[0]
        assert latencies[-1] - latencies[0] > 50


def test_head_scaling_grows_with_heads_and_stays_interactive():
    """``BENCH_head_scaling.json``: Figure 10 extended to 16 heads, and the
    stress probe at 2/4/8/16 heads."""
    result = golden.committed("BENCH_head_scaling")
    figure10_rows, stress = result["figure10_extended"], result["stress"]
    columns = ["heads", "mean_jsub_ms", "wire_bytes_per_job", "kernel_events_per_job"]
    for rows, keys in ((figure10_rows, ["measured_ms"]), (stress, columns)):
        for key in keys:
            series = [row[key] for row in rows]
            assert series == sorted(series), (key, series)
    assert stress[-1]["heads"] == 16 and stress[-1]["mean_jsub_ms"] < 1000, stress


def test_read_qps_scales_with_heads():
    """``BENCH_read_scaling.json``: the same open-loop mix (400 reads/s + 5
    writes/s, 100 clients) at 1/2/4 heads."""
    result = golden.committed("BENCH_read_scaling")
    rows = result["rows"]
    by_heads = {row["heads"]: row for row in rows}
    assert result["read_qps_speedup"] >= 2.0, result["read_qps_speedup"]
    assert by_heads[4]["read_qps"] >= 2.0 * by_heads[1]["read_qps"], rows
    for row in rows:
        assert row["reads_failed"] == 0, row
        assert 0.9 <= row["write_ratio"] <= 1.1, row
        # The point of the read path: local answers, not ordered detours.
        assert row["reads_local"] >= row["reads_fallback"], row
    # Read QPS never degrades as heads are added.
    qps = [row["read_qps"] for row in rows]
    assert qps == sorted(qps), qps


def test_shards_scale_commits_and_isolate_a_dead_sequencer():
    """``BENCH_shard_scaling.json``: the same 48-job burst at 1/2/4 shards
    on 4 heads, and one shard's sequencer killed."""
    result = golden.committed("BENCH_shard_scaling")
    rows = result["scaling"]
    # Monotonic scaling: each doubling of shards raises aggregate
    # committed/sec — the single total order is the serialization point.
    series = [row["committed_per_s"] for row in rows]
    assert series == sorted(series) and len(set(series)) == len(series), series
    for row in rows:
        assert row["committed"] == row["jobs"], row  # nothing lost
        spread = row["per_shard_committed"]
        assert max(spread) - min(spread) <= 1, row  # evenly striped

    # Fault isolation: while shard 1's sequencer is dead (before the view
    # change), shard 0 keeps committing at steady-state rate; shard 1 is
    # fully stalled, then both run at full rate after failover.
    kill = result["sequencer_kill"]
    windows = kill["windows"]
    before, dead, after = (
        windows["before"], windows["sequencer_dead"], windows["after_failover"]
    )
    assert dead["committed"][1] == 0, dead
    assert dead["committed_per_s"][0] >= 0.7 * before["committed_per_s"][0]
    assert after["committed"][0] > 0 and after["committed"][1] > 0, after
    assert kill["new_shard1_sequencer"] != kill["victim_sequencer"]


def test_endurance_day_under_churn():
    """``tests/data/endurance.json``: a compressed diurnal day, ``head0``
    crashed and restarted mid-run (``repro.bench.experiments.diurnal.endurance``)."""
    result = golden.committed("endurance")
    assert result["submitted"] == 150
    assert result["completed"] == result["submitted"]
    assert result["runs"] == result["submitted"]  # exactly once, all day
    assert result["replicas_agree"]
    # The GC keeps protocol memory bounded by the unstable window, not by
    # the day's traffic.
    assert result["max_resident_payloads"] < 100
    assert result["gc_released"] > result["submitted"]


def test_trace_replay_overhead_on_realistic_arrivals():
    """``tests/data/trace_replay.json``: one SWF day replayed on TORQUE, on
    2-head JOSHUA and on 2-head JOSHUA one wire version apart."""
    torque, joshua, mixed = golden.committed("trace_replay")
    assert torque["jobs"] == joshua["jobs"] == mixed["jobs"]
    # All three complete the whole trace — including the rolling-upgrade
    # group with one head a wire-schema version ahead (tolerant decode).
    assert torque["completed"] == torque["jobs"]
    assert joshua["completed"] == joshua["jobs"]
    assert mixed["completed"] == mixed["jobs"]
    # Replication overhead on realistic arrivals is in the Figure 10 band
    # (2 heads: ~2.7x in the paper) — not free, not pathological.
    ratio = joshua["mean_submit_ms"] / torque["mean_submit_ms"]
    assert 1.5 <= ratio <= 4.0, ratio
    # Version skew costs nothing measurable beyond plain replication.
    skew = mixed["mean_submit_ms"] / joshua["mean_submit_ms"]
    assert 0.8 <= skew <= 1.2, skew


def _mds_create_ms(replicas: int) -> float:
    """Mean latency of 20 sequential creates from the login node."""
    cluster = Cluster(head_count=replicas, compute_count=0, login_node=True, seed=3)
    mds = build_replicated_mds(cluster)
    client = PVFSClient(cluster.network, "login", mds.addresses())
    kernel = cluster.kernel
    cluster.run(until=0.5)
    samples = []

    def workload():
        for index in range(20):
            start = kernel.now
            yield from client.create(f"/f{index}")
            samples.append(kernel.now - start)

    cluster.run(until=kernel.spawn(workload()))
    return round(1000 * sum(samples) / len(samples), 2)


def test_replicated_pvfs_mds_latency():
    """The Figure-10 analogue for the replicated PVFS metadata server."""
    latencies = [_mds_create_ms(n) for n in (1, 2, 3, 4)]
    # Replication costs latency, monotonically...
    assert latencies == sorted(latencies)
    # ...but stays in interactive metadata territory even at 4 replicas.
    assert latencies[-1] < 100.0
    # And a single replica is close to the bare round trip.
    assert latencies[0] < 25.0


class TestSubstrateScenarios:
    """The scenarios the old wall-clock micro-benchmarks timed (``perf/``
    owns host time now): each still does all its work."""

    def test_kernel_timeout_cascade(self):
        kernel = Kernel()

        def chain(k, remaining):
            while remaining:
                yield k.timeout(1.0)
                remaining -= 1

        for _ in range(10):
            kernel.spawn(chain(kernel, 1000))
        kernel.run()
        assert kernel.processed_events >= 10_000

    def test_group_delivers_a_200_message_burst(self):
        kernel = Kernel(seed=1)
        network = Network(kernel, shared_medium=False)
        delivered = []
        members = []
        for i in range(3):
            name = f"n{i}"
            network.register_node(name)
            members.append(GroupMember(
                network.bind(name, 9), FAST_GROUP_CONFIG,
                on_deliver=delivered.append if i == 0 else None,
            ))
        boot_static_group(members)
        for index in range(200):
            members[index % 3].multicast(index)
        kernel.run(until=10.0)
        assert len(delivered) == 200

    def test_two_heads_complete_ten_submissions(self):
        cluster = Cluster(head_count=2, compute_count=2, seed=1)
        stack = build_joshua_stack(cluster)
        client = stack.client(node="head0", prefer="head0")

        def burst():
            for index in range(10):
                yield from client.jsub(name=f"b{index}", walltime=1.0)

        cluster.run(until=cluster.kernel.spawn(burst()))
        cluster.run(until=60.0)
        assert stack.pbs("head0").stats["completed"] == 10

