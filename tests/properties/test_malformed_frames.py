"""No datagram kills a daemon, and every request gets an answer.

PROTOCOLS.md §3 states the invariant "every datagram is a registered
record"; this is the robustness half of it. Anything the codec can encode
— tuple-tagged leftovers like ``("OBIT",)``, bare strings, empty tuples,
records sent without their envelope, ``Request``\\ s wrapping a record the
receiving daemon never registered, an obituary for a job nobody knows — may
arrive at the bound endpoint of ``pbs_server``, ``pbs_mom`` or ``joshua``.
The daemon logs and drops what it cannot route, answers every ``Request``
(the dispatcher's ``ErrorResp("bad-request", ...)`` fallback counts), and
keeps running: a daemon process that crashes fails the run. CI runs this
module a second time with ``REPRO_SANITIZE=1``.

What the daemon logs comes from the codec, so the decode errors below must
say where a frame went wrong: the byte offset and, inside a record, the
innermost record and field. A group runs one wire schema (PROTOCOLS.md
§11), so a record frame one field short of its declaration is a
truncation and one field long leaves trailing bytes.
"""

from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.aa.wire import Command, StateXferResp
from repro.joshua.wire import JOSHUA_PORT
from repro.net import Address
from repro.net.codec import WIRE, Codec, CodecError
from repro.pbs.job import JobSpec
from repro.pbs.wire import (
    AdminPurge,
    AdminServers,
    JobObit,
    KillJobReq,
    SchedPollReq,
    SimpleResp,
    StatReq,
    SubmitReq,
)
from repro.rpc.wire import Reply, Request
from tests.integration.conftest import (
    SANITIZE,
    assert_sanitizer_clean,
    drive,
    make_stack,
    settle,
)
from tests.properties.test_codec_properties import value_trees

#: daemon name -> (node, port) of the endpoint under fire.
TARGETS = {
    "pbs_server": ("head0", 15001),
    "pbs_mom": ("compute0", 15002),
    "joshua": ("head0", 4412),
}

#: The scheduler-poll epoch of the first ``pbs_server`` a fresh stack
#: builds (head0's): a poll under it reaches the incremental branch.
LIVE_EPOCH = 1

#: Well-formed records; each is unregistered for at least one target (and
#: harmless where it is registered: nothing here names a job that exists).
RECORDS = [
    StatReq(),
    SchedPollReq(),
    SchedPollReq("x", None),
    SchedPollReq(LIVE_EPOCH, -5),
    SubmitReq(JobSpec(), force_job_id="abc"),
    KillJobReq("404.nowhere"),
    JobObit("404.nowhere", 0, ("compute0",), 0.0, 1.0),
    AdminPurge(),
    AdminServers(()),
    Reply(7, SimpleResp()),
]

payloads = st.one_of(value_trees, st.sampled_from(RECORDS))
#: (wrap in a Request?, payload)
frames = st.tuples(st.booleans(), payloads)
volleys = st.lists(
    st.tuples(st.sampled_from(sorted(TARGETS)), frames), min_size=1, max_size=8
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(volley=volleys)
@example(volley=[("pbs_server", (False, ("OBIT",)))])  # IndexError at the parent
@example(volley=[("pbs_mom", (False, ("ADMIN-PURGE",))), ("joshua", (False, ()))])
@example(volley=[(name, (True, JobObit("404.nowhere", 0, (), 0.0, 1.0)))
                 for name in sorted(TARGETS)])
@example(volley=[("pbs_server", (True, SubmitReq(JobSpec(), force_job_id="abc")))])
@example(volley=[("pbs_server", (True, SchedPollReq(LIVE_EPOCH, -5))),
                 ("pbs_server", (True, SchedPollReq("x", None)))])
def test_no_frame_kills_a_daemon_and_every_request_is_answered(volley):
    stack = make_stack(heads=2, computes=1, sanitize=SANITIZE)
    cluster = stack.cluster
    assert stack.pbs("head0").epoch == LIVE_EPOCH
    probe = cluster.network.bind("login", 40000)
    answered = set()

    def note_reply(delivery):
        if isinstance(delivery.payload, Reply):
            answered.add(delivery.payload.request_id)

    probe.on_delivery(note_reply)
    asked = set()
    for index, (name, (wrap, payload)) in enumerate(volley):
        if wrap:
            # Far above the ids the stack's own conversations have used.
            request_id = 10**6 + index
            asked.add(request_id)
            payload = Request(request_id, payload)
        probe.send(Address(*TARGETS[name]), payload)
    cluster.run(until=cluster.kernel.now + 2.0)  # a crashed process raises here

    for name, (node, _port) in TARGETS.items():
        assert cluster.node(node).daemon(name).running, name
    assert answered == asked
    assert_sanitizer_clean(cluster.kernel)


# -- a capture for a shard the host does not run ----------------------------------


class TestCaptureForAShardNotHosted:
    @pytest.mark.parametrize("shard", [1, -1])
    def test_is_dropped_not_installed_or_answered(self, shard):
        """A capture push naming a shard outside ``range(nshards)`` is
        dropped by the host: no crash (shard 1 of one), no install into
        another shard (-1 would index the last one), no reply. It carries
        the waiting joiner's own marker, so only the shard check stops it."""
        stack = make_stack(heads=2, computes=1, sanitize=SANITIZE)
        cluster = stack.cluster
        drive(stack, stack.client(node="login").jsub(name="pre", walltime=900))
        # Hold the sponsors' pushes back, not the probe's.
        token = cluster.network.add_drop_filter(
            lambda src, dst, payload: isinstance(payload, StateXferResp)
            and src.node != "login")
        stack.add_head()
        joined = stack.joshua("head2").shards[0]
        settle(stack, 1.0)
        assert joined.syncing_marker is not None and not joined.active
        probe = cluster.network.bind("login", 40000)
        heard = []
        probe.on_delivery(heard.append)
        forged = StateXferResp(joined.syncing_marker, (), 99, (), applied_seq=0,
                               shard=shard)
        for head in ("head0", "head2"):
            probe.send(Address(head, JOSHUA_PORT), forged)
        settle(stack, 0.5)  # a crashed process raises here
        assert joined._response is None and not joined.active
        assert heard == []
        cluster.network.remove_drop_filter(token)
        settle(stack, 15.0)
        assert joined.active and joined.stripe_count == 1
        assert [j.job_id for j in stack.pbs("head2").jobs] == \
            [j.job_id for j in stack.pbs("head0").jobs]
        assert_sanitizer_clean(cluster.kernel)


# -- decode errors say where ----------------------------------------------------


@dataclass(frozen=True)
class Note:
    uuid: str
    body: str


def _notes() -> Codec:
    codec = Codec()
    codec.register(Note)
    return codec


class TestDecodeErrorDiagnostics:
    def test_truncated_record_names_offset_record_and_field(self):
        codec = _notes()
        frame = codec.encode(Note("u1", "hello world"))
        with pytest.raises(CodecError) as err:
            codec.decode(frame[:-4])
        exc = err.value
        assert isinstance(exc.offset, int) and exc.offset > 0
        assert exc.record_context == "Note"
        assert exc.field == "body"
        assert "at byte" in str(exc)
        assert "(while decoding field 'body' of Note)" in str(exc)

    def test_nested_failure_names_innermost_record(self):
        @dataclass(frozen=True)
        class Outer:
            inner: Note

        codec = _notes()
        codec.register(Outer)
        frame = codec.encode(Outer(Note("u", "payload")))
        with pytest.raises(CodecError) as err:
            codec.decode(frame[:-2])
        assert err.value.record_context == "Note"
        assert err.value.field == "body"

    def test_unknown_tag_reports_offset(self):
        # Every tag past the builtins' is a record number: 0xFF is 245.
        with pytest.raises(CodecError) as err:
            Codec().decode(b"\xff")
        assert "unknown wire record number 245 at byte 0" in str(err.value)
        assert err.value.offset == 0

    def test_unknown_record_reports_offset(self):
        frame = _notes().encode(Note("u", "b"))
        with pytest.raises(CodecError) as err:
            Codec().decode(frame)
        assert "unknown wire record number 0 at byte 0" in str(err.value)
        assert err.value.offset == 0

    def test_value_the_class_refuses_names_the_record_at_its_offset(self):
        # A JobState frame whose one field is "Z": no such state.
        head = 0x0A + WIRE.schema()["enums"]["JobState"]["number"]
        frame = bytes([head, 0x05, 0x01]) + b"Z"
        with pytest.raises(CodecError) as err:
            WIRE.decode(frame)
        assert err.value.offset == 0
        assert err.value.record_context == "JobState"
        assert "JobState refused its fields" in str(err.value)
        assert "at byte 0" in str(err.value)

    def test_refused_inner_record_keeps_its_own_offset(self):
        inner = bytes([0x0A + WIRE.schema()["enums"]["JobState"]["number"],
                       0x05, 0x01]) + b"Z"
        frame = WIRE.encode(("x", None))[:-1] + inner
        with pytest.raises(CodecError) as err:
            WIRE.decode(frame)
        assert err.value.offset == len(frame) - len(inner)
        assert err.value.record_context == "JobState"

    def test_trailing_bytes_report_offset(self):
        codec = Codec()
        frame = codec.encode(42)
        with pytest.raises(CodecError) as err:
            codec.decode(frame + b"\x00")
        assert "trailing bytes" in str(err.value)
        assert err.value.offset == len(frame)


def _command_frame(*fields: object) -> bytes:
    """A ``Command`` frame built by hand: the head byte ``0x0A`` + its
    number in the schema, then *fields* encoded one after another."""
    head = 0x0A + WIRE.schema()["records"]["Command"]["number"]
    return bytes([head]) + b"".join(WIRE.encode(f) for f in fields)


class TestOneSchemaPerFrame:
    def test_the_hand_built_frame_is_the_encoders(self):
        command = Command("u1", "jdel", "7.joshua")
        assert _command_frame("u1", "jdel", "7.joshua") == WIRE.encode(command)

    def test_a_field_fewer_is_a_truncation_naming_the_missing_field(self):
        frame = _command_frame("u1", "jdel")
        with pytest.raises(CodecError, match="truncated frame") as err:
            WIRE.decode(frame)
        assert err.value.record_context == "Command"
        assert err.value.field == "payload"
        assert err.value.offset == len(frame)

    def test_a_field_more_leaves_trailing_bytes_at_their_offset(self):
        full = _command_frame("u1", "jdel", "7.joshua")
        with pytest.raises(CodecError, match="trailing bytes") as err:
            WIRE.decode(_command_frame("u1", "jdel", "7.joshua", "head1"))
        assert err.value.offset == len(full)
        assert err.value.record_context is None
