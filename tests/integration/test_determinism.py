"""Determinism canaries: same seed ⇒ bit-identical simulation.

Reproducibility is the substrate every experiment in EXPERIMENTS.md rests
on. These tests run non-trivial scenarios twice and demand *exact* equality
of event counts, timings and end state — any accidental use of wall clock,
unseeded randomness, or hash-order iteration shows up here first.
"""

import hashlib
import os
import subprocess
import sys

import golden

from repro.cluster import Cluster
from repro.joshua import build_joshua_stack
from repro.pbs.job import JobState

from tests.integration.conftest import FAST_GROUP

#: CI runs this module a second time with REPRO_SANITIZE=1: the same
#: canaries, but with the kernel's determinism sanitizer watching every
#: pop for ambiguous ties (see repro.sim.sanitizer).
SANITIZE = os.environ.get("REPRO_SANITIZE", "") == "1"


def run_scenario(seed: int):
    cluster = Cluster(head_count=3, compute_count=2, seed=seed, login_node=True,
                      sanitize=SANITIZE)
    stack = build_joshua_stack(cluster, group_config=FAST_GROUP)
    kernel = cluster.kernel
    client = stack.client(node="login")
    latencies = []

    def workload():
        for index in range(6):
            start = kernel.now
            yield from client.jsub(name=f"d{index}", walltime=2.0)
            latencies.append(kernel.now - start)
            yield kernel.timeout(1.5)

    def fault():
        yield kernel.timeout(5.0)
        cluster.node("head0").crash()

    process = kernel.spawn(workload())
    kernel.spawn(fault())
    cluster.run(until=process)
    cluster.run(until=40.0)
    if SANITIZE:
        assert kernel.sanitizer.ambiguities == [], kernel.sanitizer.report()
        # Poll rows leave as shared pre-encoded fragments and mostly arrive
        # from the decode memo: still nothing shared across a delivery.
        assert kernel.sanitizer.aliasing == [], kernel.sanitizer.report()
    queue = tuple(
        (j.job_id, j.state.value, j.exit_status) for j in stack.pbs("head1").jobs
    )
    return {
        "events": kernel.processed_events,
        "latencies": tuple(latencies),
        "queue": queue,
        "net_sent": cluster.network.stats["sent"],
        "final_time": kernel.now,
    }


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        """Same seed ⇒ *bit-identical* results, even within one interpreter.

        This is exact — including latencies to the femtosecond. It used to
        need a ~1 µs tolerance because module-level UUID/port/epoch
        counters kept advancing across simulations in one process, so a
        command uuid like ``jsub-login-17`` vs ``-9`` was one byte longer
        on the wire and shifted serialisation by nanoseconds. All those
        counters now live in per-simulation state (see
        :func:`repro.rpc.rpc_state`), so consecutive simulations draw
        identical values; any regression back to process-global state
        shows up here."""
        a = run_scenario(seed=2024)
        b = run_scenario(seed=2024)
        assert a == b

    def test_two_simulations_one_interpreter_identical_traces(self):
        """Counter-state isolation, checked at the wire level: two
        fresh simulations must produce identical delivery traces, not just
        identical summaries. Catches any allocator (request ids, ports,
        uuids, markers, channel epochs) that leaks across Network
        instances."""
        traces = []
        for _run in range(2):
            cluster = Cluster(
                head_count=3, compute_count=2, seed=7, login_node=True
            )
            stack = build_joshua_stack(cluster, group_config=FAST_GROUP)
            kernel = cluster.kernel
            client = stack.client(node="login")
            trace: list[tuple] = []
            original_send = cluster.network.send

            def spy(src, dst, payload, *, _t=trace, _o=original_send, **kw):
                _t.append((kernel.now, str(src), str(dst), repr(payload)[:120]))
                return _o(src, dst, payload, **kw)

            cluster.network.send = spy

            def workload():
                for index in range(4):
                    yield from client.jsub(name=f"t{index}", walltime=2.0)
                    yield kernel.timeout(1.0)

            process = kernel.spawn(workload())
            cluster.run(until=process)
            cluster.run(until=25.0)
            traces.append(trace)
        assert traces[0] == traces[1]

    def test_hash_seed_moves_no_output(self):
        """Across processes: no draw and no iteration order depends on the
        interpreter's salted ``hash``. One pinned CLI run, in two
        interpreters with different ``PYTHONHASHSEED``s, prints the same
        bytes, and those are the committed ones."""
        argv = golden.CLI_RUNS["trace-shard"]
        digests = set()
        for hash_seed in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                env={**os.environ, "PYTHONHASHSEED": hash_seed,
                     "PYTHONPATH": str(golden.ROOT / "src")},
                capture_output=True, check=True,
            )
            digests.add(hashlib.sha256(done.stdout).hexdigest())
        pinned = golden.committed("golden_digests")["cli"]["trace-shard"]["stdout"]
        assert digests == {pinned}

    def test_different_seeds_diverge(self):
        """The seed must actually matter (jitter, workload draws)."""
        a = run_scenario(seed=1)
        b = run_scenario(seed=2)
        assert a["events"] != b["events"] or a["latencies"] != b["latencies"]

    def test_queue_outcome_stable_across_seeds(self):
        """Stochastic noise moves timings, never correctness."""
        for seed in (1, 2, 3):
            result = run_scenario(seed=seed)
            states = [state for _id, state, _x in result["queue"]]
            assert states == ["C"] * 6


class TestCrossHeadConsistency:
    def test_jstat_identical_from_every_head(self):
        """After quiescence, jstat through any head shows the same queue —
        the user-visible face of replica consistency."""
        cluster = Cluster(head_count=3, compute_count=2, seed=31, login_node=True)
        stack = build_joshua_stack(cluster, group_config=FAST_GROUP)
        kernel = cluster.kernel
        client = stack.client(node="login")

        def submit():
            for index in range(4):
                yield from client.jsub(name=f"q{index}", walltime=600.0)

        process = kernel.spawn(submit())
        cluster.run(until=process)
        cluster.run(until=kernel.now + 2.0)

        views = []
        for head in stack.head_names:
            per_head = stack.client(node="login", prefer=head)

            def stat():
                rows = yield from per_head.jstat()
                return tuple((r.job_id, r.name) for r in rows)

            p = kernel.spawn(stat())
            views.append(cluster.run(until=p))
        assert len(set(views)) == 1
