"""Runtime determinism sanitizer: plants violations and demands detection.

Two failure classes from :mod:`repro.sim.sanitizer`:

* **ambiguous ties** — indistinguishable same-instant events, detectable
  within a single run;
* **pop-order drift** — distinguishable events whose order derives from an
  unordered container, detectable only by comparing pop-order digests
  across runs (here: subprocesses under different ``PYTHONHASHSEED``).

The sanitizer is an observer: a sanitized run must be bit-identical to an
unsanitized one, and the real JOSHUA scenario must come out clean.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.cluster import Cluster
from repro.joshua import build_joshua_stack
from repro.sim.kernel import Kernel

from tests.integration.conftest import FAST_GROUP

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestAmbiguityDetection:
    def test_planted_hash_order_tie_is_detected(self):
        """Identical timeouts fanned out of a set: nothing distinguishes
        them, so their order rests on set iteration order alone."""
        kernel = Kernel(seed=3, sanitize=True)

        def buggy_fanout():
            for _peer in {"alpha", "beta", "gamma"}:
                kernel.timeout(1.0)
            yield kernel.timeout(2.0)

        kernel.spawn(buggy_fanout())
        kernel.run(until=5.0)
        assert len(kernel.sanitizer.ambiguities) == 1
        amb = kernel.sanitizer.ambiguities[0]
        assert amb.count == 3
        assert amb.time == 1.0
        assert "det_key" in amb.describe()

    def test_det_key_resolves_the_tie(self):
        """Same fan-out, but annotated: a per-item det_key pins each event
        down, so insertion order no longer matters and no tie is reported."""
        kernel = Kernel(seed=3, sanitize=True)

        def annotated_fanout():
            for peer in {"alpha", "beta", "gamma"}:
                kernel.timeout(1.0, det_key=peer)
            yield kernel.timeout(2.0)

        kernel.spawn(annotated_fanout())
        kernel.run(until=5.0)
        assert kernel.sanitizer.ambiguities == []

    def test_distinct_values_are_not_ambiguous(self):
        kernel = Kernel(seed=3, sanitize=True)

        def fanout():
            yield kernel.timeout(1.0)
            for value in (("msg", 1.0), ("msg", 1.0)):
                kernel.event().succeed(value)
            yield kernel.timeout(2.0)
            for value in ("x", "y"):
                kernel.event().succeed(value)
            yield kernel.timeout(2.0)

        kernel.spawn(fanout())
        kernel.run(until=10.0)
        # Each pair comes from one call site. The first pair is identical
        # (flagged); the second differs by value alone (not).
        assert len(kernel.sanitizer.ambiguities) == 1
        assert kernel.sanitizer.ambiguities[0].time == 1.0


class TestAliasingDetection:
    """The wire-isolation check: payload identity seen on two nodes."""

    def test_planted_shared_identity_is_detected(self):
        kernel = Kernel(seed=3, sanitize=True)
        shared = ["state", "both", "nodes", "hold"]
        sent = {"snapshot": shared}
        delivered = {"snapshot": shared}  # decode skipped: identity leaks
        kernel.sanitizer.check_payload_isolation(
            1.0, "head0:15001", "head1:15001", sent, delivered
        )
        assert len(kernel.sanitizer.aliasing) == 1
        violation = kernel.sanitizer.aliasing[0]
        assert violation.src == "head0:15001"
        assert "head1" in violation.describe()
        assert "aliased payload" in kernel.sanitizer.report()

    def test_fresh_copies_are_clean(self):
        kernel = Kernel(seed=3, sanitize=True)
        sent = {"snapshot": ["state"]}
        delivered = {"snapshot": ["state"]}  # equal but fresh, as decode makes
        kernel.sanitizer.check_payload_isolation(1.0, "a", "b", sent, delivered)
        assert kernel.sanitizer.aliasing == []

    def test_repeat_offenders_are_reported_once(self):
        kernel = Kernel(seed=3, sanitize=True)
        shared = ["j1", "j2"]
        for time in (1.0, 2.0, 3.0):
            kernel.sanitizer.check_payload_isolation(time, "a", "b", shared, shared)
        assert len(kernel.sanitizer.aliasing) == 1

    def test_scalars_and_enum_singletons_are_not_aliasing(self):
        # Interned scalars and enum members are process-wide singletons on
        # a real host too; sharing them across nodes is not a violation.
        from repro.pbs.job import JobState

        kernel = Kernel(seed=3, sanitize=True)
        kernel.sanitizer.check_payload_isolation(
            1.0, "a", "b", ("x", 7, JobState.QUEUED), ("x", 7, JobState.QUEUED)
        )
        assert kernel.sanitizer.aliasing == []


def run_joshua_scenario(*, sanitize: bool):
    cluster = Cluster(head_count=2, compute_count=2, seed=13, login_node=True,
                      sanitize=sanitize)
    stack = build_joshua_stack(cluster, group_config=FAST_GROUP)
    kernel = cluster.kernel
    client = stack.client(node="login")

    def workload():
        for index in range(4):
            yield from client.jsub(name=f"s{index}", walltime=2.0)
            yield kernel.timeout(1.0)

    process = kernel.spawn(workload())
    cluster.run(until=process)
    cluster.run(until=25.0)
    queue = tuple(
        (j.job_id, j.state.value) for j in stack.pbs("head0").jobs
    )
    return kernel, {
        "events": kernel.processed_events,
        "queue": queue,
        "net_sent": cluster.network.stats["sent"],
        "final_time": kernel.now,
    }


class TestRealScenario:
    def test_joshua_scenario_is_ambiguity_free(self):
        kernel, _result = run_joshua_scenario(sanitize=True)
        assert kernel.sanitizer.ambiguities == [], kernel.sanitizer.report()
        assert kernel.sanitizer.aliasing == [], kernel.sanitizer.report()
        assert kernel.sanitizer.digest != 0

    def test_isolation_audit_passes_with_fragments_in_the_sent_payload(self):
        """Poll and qstat replies are *sent* holding pre-encoded fragments —
        each the same object in every reply until its job changes — and
        *arrive* as plain rows, memo hits included: nothing of the sender's,
        and nothing of an earlier delivery, may be in them. A poll ships a
        job's row when the job changes; every ordered ``jstat`` ships the
        unchanged row again, from every head's ``StatResp``."""
        from repro.net.codec import PlainFragment
        from repro.pbs.server import PBS_SERVER_PORT
        from repro.pbs.wire import SchedPollResp, StatResp

        cluster = Cluster(head_count=2, compute_count=2, seed=13,
                          login_node=True, sanitize=True)
        stack = build_joshua_stack(cluster, group_config=FAST_GROUP)
        network = cluster.network
        sent, delivered = [], []
        inner_send = network.send

        def rows_from_pbs(src, frame):
            """The reply in *frame* if a pbs_server sent rows in it."""
            reply = getattr(frame, "payload", None)
            if (src.port == PBS_SERVER_PORT
                    and type(reply) in (SchedPollResp, StatResp) and reply.rows):
                return reply
            return None

        def spy(src, dst, payload):
            if (reply := rows_from_pbs(src, payload)) is not None:
                sent.append(reply)
            return inner_send(src, dst, payload)

        network.send = spy
        audit = cluster.kernel.sanitizer.check_payload_isolation

        def audit_spy(time, src, dst, was_sent, fresh):
            if (reply := rows_from_pbs(src, fresh)) is not None:
                delivered.append(reply)
            return audit(time, src, dst, was_sent, fresh)

        cluster.kernel.sanitizer.check_payload_isolation = audit_spy
        client = stack.client(node="login")
        process = cluster.kernel.spawn(client.jsub(name="held", walltime=900.0))
        cluster.run(until=process)
        cluster.run(until=3.0)
        for _ in range(4):
            process = cluster.kernel.spawn(client.jstat())
            cluster.run(until=process)
        cluster.run(until=cluster.kernel.now + 0.5)
        polls = [r for r in sent if type(r) is SchedPollResp]
        stats = [r for r in sent if type(r) is StatResp]
        assert len(polls) >= 4 and len(stats) == 8 and len(delivered) == len(sent)
        assert all(type(row) is PlainFragment for r in sent for row in r.rows)
        assert all(type(row) is dict for r in delivered for row in r.rows)
        # The unchanged row is one fragment, sent again and again...
        assert len({id(r.rows[0]) for r in stats}) <= 2  # one per head
        # ...and every delivery of it is its own dict with its own list.
        rows = [r.rows[0] for r in delivered]
        assert len({id(row) for row in rows}) == len(rows)
        assert len({id(row["exec_nodes"]) for row in rows}) == len(rows)
        assert cluster.kernel.sanitizer.aliasing == [], \
            cluster.kernel.sanitizer.report()

    def test_faulted_scenario_has_no_cross_node_aliasing(self):
        """Membership churn and partitions exercise the state-transfer and
        recovery paths — the snapshot-heavy traffic most likely to leak a
        shared object across nodes."""
        from repro.faults import FaultInjector, FaultSchedule

        cluster = Cluster(head_count=3, compute_count=2, seed=17,
                          login_node=True, sanitize=True)
        stack = build_joshua_stack(cluster, group_config=FAST_GROUP)
        kernel = cluster.kernel
        client = stack.client(node="login")
        injector = FaultInjector(cluster)
        injector.apply(
            FaultSchedule()
            .crash(6.0, "head2")          # leave: view change + exclusion
            .restart(10.0, "head2")       # rejoin: flush + state transfer
            .cut(14.0, "head1", "head0")  # asymmetric partition episode
            .restore(16.0, "head1", "head0")
        )

        def workload():
            for index in range(3):
                yield from client.jsub(name=f"f{index}", walltime=2.0)
                yield kernel.timeout(3.0)

        process = kernel.spawn(workload())
        cluster.run(until=process)
        cluster.run(until=40.0)
        assert kernel.sanitizer.aliasing == [], kernel.sanitizer.report()
        assert kernel.sanitizer.ambiguities == [], kernel.sanitizer.report()

    def test_identical_runs_identical_digests(self):
        kernel_a, a = run_joshua_scenario(sanitize=True)
        kernel_b, b = run_joshua_scenario(sanitize=True)
        assert kernel_a.sanitizer.digest == kernel_b.sanitizer.digest
        assert a == b

    def test_sanitizer_is_a_pure_observer(self):
        """Sanitized and unsanitized runs are bit-identical."""
        _, sanitized = run_joshua_scenario(sanitize=True)
        _, plain = run_joshua_scenario(sanitize=False)
        assert sanitized == plain


# A drift bug the single-run ambiguity check *cannot* see: the events carry
# distinct payloads (so no identical-fingerprint tie), but the order they
# enter the queue in comes from set iteration — i.e. from the string hash
# seed. Only the cross-process digest comparison catches it.
_DRIFT_SCRIPT = """
import sys
from repro.sim.kernel import Kernel

kernel = Kernel(seed=1, sanitize=True)
names = {{"ant", "bee", "cat", "dog", "elk", "fox", "gnu", "hen"}}
for name in {iterable}:
    kernel.event().succeed(name)
kernel.run(until=1.0)
print(kernel.sanitizer.digest)
"""


def _digest_under_hash_seed(iterable: str, hash_seed: int) -> int:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    out = subprocess.run(
        [sys.executable, "-c", _DRIFT_SCRIPT.format(iterable=iterable)],
        capture_output=True, text=True, env=env, check=True,
    )
    return int(out.stdout.strip())


class TestPopOrderDrift:
    def test_digest_exposes_hash_seed_dependence(self):
        digests = {_digest_under_hash_seed("names", seed) for seed in range(5)}
        assert len(digests) > 1, (
            "planted hash-order iteration produced one digest across five "
            "hash seeds — the drift detector lost its signal"
        )

    def test_sorted_iteration_is_hash_seed_independent(self):
        digests = {
            _digest_under_hash_seed("sorted(names)", seed) for seed in range(5)
        }
        assert len(digests) == 1
