"""Property-based tests of the PBS substrate and JOSHUA replication.

* the Job state machine never reaches an illegal state through any legal
  transition path, and illegal jumps always raise;
* the queue's FIFO selection matches a reference model under arbitrary
  add/hold/release/complete interleavings;
* JOSHUA replicas end bit-identical (same job ids, same states) for random
  jsub/jdel scripts — with and without a head crash mid-script;
* a PBS server restarted from its per-job disk records at an arbitrary
  point of an arbitrary command history holds the pre-crash queue, in the
  pre-crash order, with the pre-crash id counter;
* along the same histories, a scheduler's copy of the queue kept by
  incremental polls — some of whose replies are lost — plus the next
  poll's delta is the live part of the full table, in order.
"""

import copy
import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import pytest

from repro.cluster import Cluster
from repro.net.address import Address
from repro.net.codec import WIRE
from repro.pbs.job import Job, JobSpec, JobState
from repro.pbs.mom import PBSMom
from repro.pbs.queue import JobQueue
from repro.pbs.scheduler import QueueView, fifo_decide
from repro.pbs.server import PBS_MOM_PORT, PBS_SERVER_PORT, PBSServer
from repro.pbs.wire import (
    DeleteReq,
    HoldReq,
    PurgeReq,
    ReleaseReq,
    RerunReq,
    RunJobReq,
    SchedPollReq,
    SubmitReq,
)
from repro.rpc import call as rpc_call
from repro.util.errors import PBSError
from tests.integration.conftest import SANITIZE, assert_sanitizer_clean


TRANSITIONS = {
    JobState.QUEUED: [JobState.RUNNING, JobState.COMPLETE, JobState.HELD, JobState.WAITING],
    JobState.HELD: [JobState.QUEUED, JobState.COMPLETE],
    JobState.WAITING: [JobState.QUEUED, JobState.COMPLETE],
    JobState.RUNNING: [JobState.EXITING, JobState.COMPLETE, JobState.QUEUED],
    JobState.EXITING: [JobState.COMPLETE],
    JobState.COMPLETE: [],
}


@settings(max_examples=100, deadline=None)
@given(choices=st.lists(st.integers(min_value=0, max_value=3), max_size=12))
def test_job_state_machine_closed_under_legal_transitions(choices):
    job = Job("1.t", JobSpec())
    for choice in choices:
        legal = TRANSITIONS[job.state]
        if not legal:
            break
        target = legal[choice % len(legal)]
        kwargs = {}
        if target is JobState.RUNNING:
            kwargs = {"start_time": 0.0}
        job = job.transition(target, **kwargs)
        assert job.state is target
    # From wherever we ended, every non-legal target raises.
    for target in JobState:
        if target not in TRANSITIONS[job.state]:
            with pytest.raises(PBSError):
                job.transition(target)


queue_action = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 9)),
    st.tuples(st.just("hold"), st.integers(0, 9)),
    st.tuples(st.just("release"), st.integers(0, 9)),
    st.tuples(st.just("complete"), st.integers(0, 9)),
)


@settings(max_examples=100, deadline=None)
@given(actions=st.lists(queue_action, max_size=25))
def test_queue_fifo_matches_reference_model(actions):
    queue = JobQueue()
    # Reference: insertion-ordered list of (id, state) with the same rules.
    model: list[list] = []

    def model_find(job_id):
        for entry in model:
            if entry[0] == job_id:
                return entry
        return None

    next_seq = 1
    for kind, key in actions:
        job_id = f"{key}.t"
        entry = model_find(job_id)
        if kind == "add":
            if entry is None:
                queue.add(Job(job_id, JobSpec()))
                model.append([job_id, "Q"])
        elif entry is not None:
            job = queue.get(job_id)
            try:
                if kind == "hold" and entry[1] == "Q":
                    queue.update(job.transition(JobState.HELD))
                    entry[1] = "H"
                elif kind == "release" and entry[1] == "H":
                    queue.update(job.transition(JobState.QUEUED))
                    entry[1] = "Q"
                elif kind == "complete" and entry[1] in ("Q", "H"):
                    queue.update(job.transition(JobState.COMPLETE))
                    entry[1] = "C"
            except PBSError:
                pass
    expected = next((j for j, s in model if s == "Q"), None)
    actual = queue.first_eligible()
    assert (actual.job_id if actual else None) == expected


# -- replicated determinism through the whole JOSHUA stack ----------------------

joshua_op = st.one_of(
    st.tuples(st.just("jsub"), st.integers(1, 4)),
    st.tuples(st.just("jdel"), st.integers(1, 6)),
)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    script=st.lists(joshua_op, min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**16),
    crash=st.booleans(),
    crash_point=st.integers(min_value=0, max_value=7),
)
def test_joshua_replicas_identical_for_random_scripts(script, seed, crash, crash_point):
    from repro.cluster import Cluster
    from repro.joshua import build_joshua_stack
    from tests.integration.conftest import FAST_GROUP

    heads = 3
    cluster = Cluster(head_count=heads, compute_count=2, seed=seed, login_node=True)
    stack = build_joshua_stack(cluster, group_config=FAST_GROUP)
    client = stack.client(node="login", prefer="head2")
    kernel = cluster.kernel

    def driver():
        for index, (kind, arg) in enumerate(script):
            if crash and index == min(crash_point, len(script) - 1) and cluster.node("head0").is_up:
                cluster.node("head0").crash()
            try:
                if kind == "jsub":
                    yield from client.jsub(name=f"p{index}", walltime=600.0 * arg)
                else:
                    yield from client.jdel(f"{arg}.joshua")
            except Exception:
                pass  # unknown-job errors etc. are deterministic app errors

    process = kernel.spawn(driver())
    cluster.run(until=process)
    cluster.run(until=kernel.now + 4.0)

    live = [h for h in stack.head_names if cluster.node(h).is_up]
    snapshots = [
        tuple((j.job_id, j.state.value) for j in stack.pbs(h).jobs) for h in live
    ]
    assert len(set(snapshots)) == 1, f"replica divergence: {snapshots}"


# -- restart from disk at an arbitrary point of an arbitrary history --------------

COMPUTES = ("compute0", "compute1")
#: Pick an existing job by position (modulo the queue length).
job_picks = st.integers(min_value=0, max_value=63)
specs = st.builds(
    JobSpec,
    name=st.sampled_from(["a", "bb", "ccc"]),
    nodes=st.integers(1, 2),
    # Short jobs finish (obituaries); long ones stay RUNNING across crashes.
    walltime=st.sampled_from([0.3, 500.0]),
)


def _requeued(job: Job) -> Job:
    """What ``PBSServer._recover`` documents for a job found mid-run (or
    mid-kill: the restart loses the kill in flight too)."""
    if job.state not in (JobState.RUNNING, JobState.EXITING):
        return job
    return dataclasses.replace(
        job, state=JobState.QUEUED, start_time=None, exec_nodes=(),
        comment="requeued after server recovery",
    )


def _over_the_wire(payload):
    """*payload* as its receiver decodes it (pre-encoded rows become dicts)."""
    return WIRE.decode(WIRE.encode(payload))


class RestartFromDisk(RuleBasedStateMachine):
    """One head with a PBS server and two moms, no scheduler: the machine
    issues every mutating request itself, over the real RPC path, and may
    crash and restart the head between any two of them. It also plays
    Maui's half of the poll: ``view`` is folded through the scheduler's own
    :class:`QueueView` code."""

    def __init__(self):
        super().__init__()
        self.cluster = Cluster(head_count=1, compute_count=2, seed=5, sanitize=SANITIZE)
        self.head = self.cluster.heads[0]
        self.address = Address(self.head.name, PBS_SERVER_PORT)
        moms = [Address(name, PBS_MOM_PORT) for name in COMPUTES]
        self.head.add_daemon("pbs_server", lambda node: PBSServer(node, moms=moms))
        for compute in self.cluster.computes:
            compute.add_daemon(
                "pbs_mom", lambda node: PBSMom(node, servers=[self.address]))
        #: Ids a purge removed and nothing has re-added since.
        self.removed: set[str] = set()
        self.view = QueueView()

    @property
    def server(self) -> PBSServer:
        return self.head.daemon("pbs_server")

    def request(self, payload):
        """One request to completion; a PBS-level refusal returns None."""
        def call():
            try:
                return (yield from rpc_call(
                    self.cluster.network, "compute0", self.address, payload,
                    timeout=5.0))
            except PBSError:
                return None

        before = {job.job_id for job in self.server.jobs}
        result = self.cluster.run(until=self.cluster.kernel.spawn(call()))
        after = {job.job_id for job in self.server.jobs}
        self.removed = (self.removed | (before - after)) - after
        return result

    def pick(self, index: int) -> str:
        jobs = self.server.jobs.snapshot()
        return jobs[index % len(jobs)].job_id if jobs else "404.torque"

    # -- user and scheduler commands ------------------------------------------

    @rule(spec=specs)
    def submit(self, spec):
        self.request(SubmitReq(spec))

    @rule(spec=specs, seq=st.integers(1, 40))
    def submit_forced_id(self, spec, seq):
        job_id = f"{seq}.torque"
        if job_id not in self.server.jobs:
            self.request(SubmitReq(spec, force_job_id=job_id))

    @rule(index=job_picks)
    def delete(self, index):
        self.request(DeleteReq(self.pick(index)))

    @rule(index=job_picks)
    def hold(self, index):
        self.request(HoldReq(self.pick(index)))

    @rule(index=job_picks)
    def release(self, index):
        self.request(ReleaseReq(self.pick(index)))

    @rule(index=job_picks)
    def rerun(self, index):
        self.request(RerunReq(self.pick(index)))

    @rule(index=job_picks, nodes=st.sampled_from([COMPUTES[:1], COMPUTES[1:], COMPUTES]))
    def run(self, index, nodes):
        self.request(RunJobReq(self.pick(index), nodes))

    @rule(seconds=st.sampled_from([0.1, 1.0]))
    def let_obituaries_arrive(self, seconds):
        self.cluster.run(until=self.cluster.kernel.now + seconds)

    # -- the scheduler's poll -----------------------------------------------------

    @rule()
    def poll(self):
        self.view.apply(self.request(self.view.request()))

    @rule()
    def lose_poll_reply(self):
        self.request(self.view.request())

    # -- the state-transfer request ---------------------------------------------

    @rule(stride=st.integers(1, 3), lane=st.integers(0, 2))
    def purge_stripe(self, stride, lane):
        self.request(PurgeReq(stride, lane % stride))

    # -- the crash ---------------------------------------------------------------

    @rule(downtime=st.sampled_from([0.0, 0.5]))
    def crash_and_restart(self, downtime):
        before = self.server.jobs.snapshot()
        next_seq = self.server.next_seq
        self.head.crash()
        self.cluster.run(until=self.cluster.kernel.now + downtime)
        self.head.restart()
        recovered = self.server
        assert recovered.jobs.snapshot() == [_requeued(job) for job in before]
        assert recovered.next_seq == next_seq
        assert not self.removed & {job.job_id for job in recovered.jobs}

    @invariant()
    def queue_order_is_rank_order(self):
        jobs = self.server.jobs
        ranks = [jobs.rank(job.job_id) for job in jobs]
        assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)

    @invariant()
    def held_rows_and_the_next_delta_are_the_table(self):
        """Taken at one instant, no sim time passing: the view caught up by
        the reply its next poll would get holds the non-"C" rows of a full
        poll, in queue order, and FIFO decides the same on both."""
        server = self.server
        caught_up = copy.deepcopy(self.view)
        caught_up.apply(_over_the_wire(server._do_sched_poll(self.view.request())))
        full = _over_the_wire(server._do_sched_poll(SchedPollReq()))
        assert caught_up.rows() == [row for row in full.rows if row["state"] != "C"]
        node_free = list(full.node_free)
        for exclusive in (True, False):
            assert fifo_decide(caught_up.rows(), node_free, exclusive=exclusive) \
                == fifo_decide(list(full.rows), node_free, exclusive=exclusive)

    def teardown(self):
        assert_sanitizer_clean(self.cluster.kernel)


RestartFromDisk.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestRestartFromDisk = RestartFromDisk.TestCase


# -- the poll's shortcuts equal the full scans they replace ----------------------


def _full_scan_to_wire(queue: JobQueue, since: int) -> list:
    """``JobQueue.to_wire`` as one scan of the whole table: every job, in
    submission order, whose last change is after *since*."""
    return [
        job.wire_row for job in queue
        if queue._stamps[job.job_id] > since
    ]


queue_edit = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 7)),
    st.tuples(st.just("update"), st.integers(0, 7)),
    st.tuples(st.just("remove"), st.integers(0, 7)),
)


@settings(max_examples=150, deadline=None)
@given(edits=st.lists(queue_edit, max_size=40))
def test_delta_to_wire_equals_the_full_scan(edits):
    queue = JobQueue()
    added = 0
    for kind, key in edits:
        job_id = f"{key}.t"
        if kind == "add":
            if job_id not in queue:
                added += 1
                queue.add(Job(job_id, JobSpec(name=f"n{added}")))
        elif job_id in queue:
            if kind == "update":
                job = queue.get(job_id)
                queue.update(dataclasses.replace(job, comment=f"{job.comment}+"))
            else:
                queue.remove(job_id)
        for since in range(queue.generation + 2):
            assert queue.to_wire(since) == _full_scan_to_wire(queue, since), since


def _listing_fifo_decide(rows, node_free, *, exclusive):
    """``fifo_decide`` as it was first written: two full lists, then the
    head of the queued one."""
    running = [r for r in rows if r["state"] in ("R", "E")]
    if exclusive and running:
        return None
    free_nodes = [name for name, free in node_free if free]
    candidates = [r for r in rows if r["state"] == "Q"]
    if not candidates:
        return None
    row = candidates[0]
    if row["nodes"] <= len(free_nodes):
        return row["job_id"], tuple(sorted(free_nodes)[: row["nodes"]])
    return None


poll_rows = st.lists(
    st.tuples(st.sampled_from("QRHEWC"), st.integers(1, 4)), max_size=10
).map(lambda rows: [
    {"job_id": f"{index}.t", "state": state, "nodes": nodes}
    for index, (state, nodes) in enumerate(rows)
])
node_frees = st.lists(
    st.tuples(st.sampled_from(["n0", "n1", "n2", "n3"]), st.booleans()),
    max_size=4, unique_by=lambda pair: pair[0],
)


@settings(max_examples=300, deadline=None)
@given(rows=poll_rows, node_free=node_frees, exclusive=st.booleans())
def test_fifo_decide_equals_the_listing_reference(rows, node_free, exclusive):
    assert fifo_decide(rows, node_free, exclusive=exclusive) \
        == _listing_fifo_decide(rows, node_free, exclusive=exclusive)
