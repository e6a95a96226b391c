"""Rolling upgrade: a mixed-version group stays invariant-clean.

One head runs an *evolved* wire module — ``Command`` grew a defaulted
trailing field, the only delta class R7 marks wire-compatible — while the
rest of the group runs the shipped declaration. Tolerant decoding (the
runtime half of the R7 contract) keeps the replicated queues identical and
every invariant green.
"""

from dataclasses import dataclass

from repro.faults.invariants import InvariantSuite
from repro.joshua.wire import Command
from repro.net.codec import WIRE

from tests.integration.conftest import drive, make_stack, settle


@dataclass(frozen=True)
class CommandV2(Command):
    """The shipped ``Command`` plus one defaulted trailing field — the
    shape a rolling upgrade is allowed to ship (compatible append). It
    subclasses the shipped class, as an in-place upgrade would, so the
    executor's ``isinstance`` dispatch accepts both versions."""

    origin: str = ""


def _upgrade(stack, head):
    """Run *head* on an evolved wire module: its codec decodes ``Command``
    frames into :class:`CommandV2`, while shared protocol code constructing
    the v1 class still encodes (the clone keeps it as an encode alias)."""
    codec = WIRE.clone(overrides={"Command": CommandV2})
    stack.cluster.network.set_node_codec(head, codec)
    return codec


class TestMixedVersionGroup:
    def test_commands_commit_across_version_skew(self):
        stack = make_stack(heads=2)
        _upgrade(stack, "head1")
        suite = InvariantSuite(stack).attach()

        c0 = stack.client(node="compute0", prefer="head0")
        c1 = stack.client(node="compute1", prefer="head1")
        ids = [
            drive(stack, c0.jsub(name="from-old", walltime=300)),
            drive(stack, c1.jsub(name="from-new", walltime=300)),
            drive(stack, c0.jsub(name="old-again", walltime=300)),
        ]
        settle(stack, 1.0)

        snapshots = [
            [(j.job_id, j.spec.name) for j in stack.pbs(h).jobs]
            for h in stack.head_names
        ]
        assert snapshots[0] == snapshots[1]
        assert sorted(j for j, _ in snapshots[0]) == sorted(ids)
        assert suite.final_check() == []

    def test_upgraded_head_sees_the_appended_default(self):
        stack = make_stack(heads=2)
        _upgrade(stack, "head1")
        codec = stack.cluster.network.codec_for("head1")
        # A v1 frame from the wire decodes, on the upgraded head, to the
        # evolved class with the appended field filled from its default.
        frame = WIRE.encode(Command("u-1", "jsub", None))
        got = codec.decode(frame)
        assert type(got) is CommandV2
        assert got.origin == ""
        # ...and the upgraded head's own v1 constructions (shared executor
        # code) still encode, riding the old shape.
        assert WIRE.decode(codec.encode(Command("u-2", "jstat", None)))

    def test_jobs_run_to_completion_with_version_skew(self):
        stack = make_stack(heads=2)
        _upgrade(stack, "head1")
        suite = InvariantSuite(stack).attach()
        client = stack.client(node="login", prefer="head1")
        job_id = drive(stack, client.jsub(name="short", walltime=1.0))
        settle(stack, 8.0)
        for head in stack.head_names:
            job = stack.pbs(head).jobs.get(job_id)
            assert job is not None and job.state.name == "COMPLETE"
        assert suite.final_check() == []
