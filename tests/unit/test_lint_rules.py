"""Each analysis rule fires on a planted violation and stays quiet on the
matching clean idiom; the ignore mechanism is reasoned and rule-scoped."""

import enum
import sys
import textwrap
import types
from dataclasses import dataclass
from typing import NamedTuple

import pytest

from repro.analysis import check_files
from repro.net.codec import Codec, CodecError


def check_source(source: str, path: str = "snippet.py", rules=None):
    """Lint one source string as the repro-relative *path* (which drives
    rule scoping: ``"gcs/x.py"`` puts it inside R3's protocol layers)."""
    return check_files({path: source}, rules=rules)


def rules_of(findings):
    return sorted({f.rule for f in findings})


def src(code: str) -> str:
    return textwrap.dedent(code).lstrip("\n")


# ---------------------------------------------------------------------------
# R1 — wall clock / OS entropy
# ---------------------------------------------------------------------------


class TestR1:
    def test_fires_on_wall_clock(self):
        findings = check_source(
            src(
                """
                import time

                def stamp():
                    return time.time()
                """
            ),
            path="sim/bad.py",
        )
        assert rules_of(findings) == ["R1"]
        assert "time.time" in findings[0].message

    def test_fires_through_import_aliases(self):
        findings = check_source(
            src(
                """
                from time import perf_counter as tick
                from random import random as draw
                import uuid

                def f():
                    tick()
                    draw()
                    return uuid.uuid4()
                """
            ),
            path="bench/bad.py",
        )
        assert [f.rule for f in findings] == ["R1", "R1", "R1"]

    def test_fires_on_unseeded_rng(self):
        findings = check_source(
            src(
                """
                import random

                def f():
                    r = random.Random()
                    return random.random(), random.randint(0, 3), r
                """
            ),
            path="faults/bad.py",
        )
        assert [f.rule for f in findings] == ["R1", "R1", "R1"]

    def test_quiet_on_seeded_rng(self):
        findings = check_source(
            src(
                """
                import random

                def f(seed):
                    return random.Random(seed), random.Random(f"{seed}/net")
                """
            ),
            path="faults/good.py",
        )
        assert findings == []

    def test_util_rng_is_exempt(self):
        source = src(
            """
            import random

            def entropy():
                return random.Random()
            """
        )
        assert check_source(source, path="util/rng.py") == []
        assert rules_of(check_source(source, path="util/other.py")) == ["R1"]


# ---------------------------------------------------------------------------
# R2 — module-level mutable state
# ---------------------------------------------------------------------------


class TestR2:
    def test_fires_on_module_level_mutable(self):
        findings = check_source(
            src(
                """
                import itertools

                cache = {}
                _pending = set()
                _ids = itertools.count()
                """
            ),
            path="rpc/bad.py",
        )
        assert [f.rule for f in findings] == ["R2", "R2", "R2"]

    def test_fires_on_global_statement(self):
        findings = check_source(
            src(
                """
                _counter = 0

                def bump():
                    global _counter
                    _counter += 1
                """
            ),
            path="rpc/bad.py",
        )
        assert rules_of(findings) == ["R2"]

    def test_quiet_on_constants_and_instance_state(self):
        findings = check_source(
            src(
                """
                __all__ = ["Thing"]

                LEVELS = {"info": 1, "warn": 2}
                NAMES = ("a", "b")

                class Thing:
                    def __init__(self):
                        self.cache = {}
                        self.pending = set()

                def f():
                    local = []
                    return local
                """
            ),
            path="rpc/good.py",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# R3 — unordered iteration in protocol layers
# ---------------------------------------------------------------------------


class TestR3:
    def test_fires_on_set_iteration(self):
        findings = check_source(
            src(
                """
                class Daemon:
                    def __init__(self):
                        self._peers: set[str] = set()

                    def beacon(self, send):
                        for peer in self._peers:
                            send(peer)
                """
            ),
            path="gcs/bad.py",
        )
        assert rules_of(findings) == ["R3"]

    def test_fires_on_set_arithmetic_and_dict_views(self):
        findings = check_source(
            src(
                """
                def f(send, known, extra, table):
                    gone = known - extra
                    for peer in gone | extra:
                        send(peer)
                    for value in table.values():
                        send(value)

                known = {1, 2}
                extra = {3}
                """
            ),
            path="net/bad.py",
            rules=["R3"],  # the module-level sets above are a (correct) R2 hit
        )
        assert [f.rule for f in findings] == ["R3", "R3"]

    def test_fires_on_conditional_set_assignment(self):
        # The install_view shape: a name bound to set arithmetic behind a
        # conditional expression is still a set when iterated later.
        findings = check_source(
            src(
                """
                def f(view, old, forget):
                    departed = set(old) - set(view) if old is not None else set()
                    for gone in departed:
                        forget(gone)
                """
            ),
            path="gcs/bad.py",
            rules=["R3"],
        )
        assert rules_of(findings) == ["R3"]

    def test_quiet_when_sorted_or_reduced(self):
        findings = check_source(
            src(
                """
                def f(send, peers, table):
                    for peer in sorted(peers):
                        send(peer)
                    best = max(v for v in table.values())
                    total = sum(table.values())
                    return best, total

                peers = {1, 2}
                """
            ),
            path="gcs/good.py",
            rules=["R3"],
        )
        assert findings == []

    def test_scoped_to_protocol_layers(self):
        source = src(
            """
            def f(table):
                return [v + 1 for v in table.values()]
            """
        )
        assert rules_of(check_source(source, path="pbs/bad.py")) == ["R3"]
        # Same code outside net/rpc/gcs/pbs/joshua is fine: nothing
        # order-sensitive ever leaves the bench/report layers.
        assert check_source(source, path="bench/fine.py") == []


# ---------------------------------------------------------------------------
# R4 — protocol completeness (cross-file)
# ---------------------------------------------------------------------------


class TestR4:
    WIRE = src(
        """
        from dataclasses import dataclass

        __all__ = ["Ping", "PongResp"]

        @dataclass(frozen=True)
        class Ping:
            n: int

        @dataclass(frozen=True)
        class PongResp:
            n: int
        """
    )

    def test_fires_on_unhandled_and_unconstructed(self):
        findings = check_files(
            {"pvfs/wire.py": self.WIRE, "pvfs/service.py": "x = 1\n"},
            rules=["R4"],
        )
        messages = [f.message for f in findings]
        assert any("Ping has no handler" in m for m in messages)
        assert any("Ping is never constructed" in m for m in messages)
        assert any("PongResp is never constructed" in m for m in messages)

    def test_quiet_when_dispatched_and_constructed(self):
        service = src(
            """
            def dispatch(payload, reply):
                if isinstance(payload, Ping):
                    reply(PongResp(payload.n))
            """
        )
        client = src(
            """
            def call(send):
                send(Ping(1))
            """
        )
        findings = check_files(
            {
                "pvfs/wire.py": self.WIRE,
                "pvfs/service.py": service,
                "cli.py": client,
            },
            rules=["R4"],
        )
        assert findings == []

    def test_recognises_register_and_dispatch_tables(self):
        service = src(
            """
            def build(rpc, handle):
                reg = rpc.register
                reg(Ping, handle)
                table = {PongResp: handle}
                return table
            """
        )
        client = src(
            """
            def call(send):
                send(Ping(1))
                send(PongResp(2))
            """
        )
        findings = check_files(
            {
                "pvfs/wire.py": self.WIRE,
                "pvfs/service.py": service,
                "cli.py": client,
            },
            rules=["R4"],
        )
        assert findings == []


class TestR4Shape:
    """The shape half of R4: handler field access and ErrorResp kinds."""

    WIRE = src(
        """
        from dataclasses import dataclass

        __all__ = ["Ping", "PongResp"]

        @dataclass(frozen=True)
        class Ping:
            n: int

        @dataclass(frozen=True)
        class PongResp:
            n: int
        """
    )
    CLIENT = src(
        """
        def call(send):
            send(Ping(1))
            send(PongResp(2))
        """
    )

    def check(self, service):
        return check_files(
            {
                "pvfs/wire.py": self.WIRE,
                "pvfs/service.py": service,
                "cli.py": self.CLIENT,
            },
            rules=["R4"],
        )

    def test_fires_when_handler_reads_unknown_field(self):
        service = src(
            """
            class S:
                def build(self, rpc):
                    rpc.register(Ping, self._on_ping)

                def _on_ping(self, src, request_id, payload):
                    return PongResp(payload.count)
            """
        )
        messages = [f.message for f in self.check(service)]
        assert any("reads payload.count" in m for m in messages)

    def test_quiet_on_declared_fields(self):
        service = src(
            """
            class S:
                def build(self, rpc):
                    rpc.register(Ping, self._on_ping)

                def _on_ping(self, src, request_id, payload):
                    return PongResp(payload.n)
            """
        )
        assert self.check(service) == []

    def test_resolves_through_forwarding_lambdas(self):
        service = src(
            """
            class S:
                def build(self, rpc):
                    rpc.register(Ping, lambda s, r, p: self._do_ping(p))

                def _do_ping(self, req):
                    return PongResp(req.missing)
            """
        )
        messages = [f.message for f in self.check(service)]
        assert any("reads payload.missing" in m for m in messages)

    def test_lambda_that_drops_payload_is_not_checked(self):
        # self._do_reset() never receives the payload, so its parameter
        # (whatever it reads from it) is not the wire message.
        service = src(
            """
            class S:
                def build(self, rpc):
                    rpc.register(Ping, lambda s, r, p: self._do_reset())

                def _do_reset(self, state=None):
                    return PongResp(0)

                def handles(self, payload):
                    return isinstance(payload, Ping)
            """
        )
        assert self.check(service) == []

    def test_error_resp_kind_without_consumer_fires(self):
        emit = 'def h():\n    return ErrorResp("weird-kind", "boom")\n'
        findings = check_files({"pbs/server.py": emit}, rules=["R4"])
        assert any("weird-kind" in f.message for f in findings)

    def test_error_resp_kind_with_consumer_is_quiet(self):
        emit = 'def h():\n    return ErrorResp("weird-kind", "boom")\n'
        consumer = 'def c(exc):\n    return "weird-kind" in str(exc)\n'
        findings = check_files(
            {"pbs/server.py": emit, "joshua/client.py": consumer}, rules=["R4"]
        )
        assert findings == []

    def test_exempted_kind_is_quiet(self):
        # "retry" is consumed generically (except PBSError) and exempted
        # with a reason in ERROR_KINDS_EXEMPT.
        emit = 'def h():\n    return ErrorResp("retry", "marker not reached")\n'
        assert check_files({"joshua/server.py": emit}, rules=["R4"]) == []



class TestR4TypedFrames:
    """Every datagram is a registered record (PROTOCOLS.md §3)."""

    def test_fires_on_tuple_tagged_send(self):
        # The obituary as it was sent before it rode repro.rpc.
        mom = src(
            """
            def obit_loop(ack_endpoint, server, obit):
                ack_endpoint.send(server, ("OBIT", obit))
            """
        )
        findings = check_files({"pbs/mom.py": mom}, rules=["R4"])
        assert [f.line for f in findings] == [2]
        assert "tuple-tagged frame ('OBIT', …)" in findings[0].message

    def test_fires_on_hand_unwrapped_envelope(self):
        mom = src(
            """
            def run(self, frame):
                if isinstance(frame, Request):
                    return frame.payload
            """
        )
        findings = check_files({"pbs/mom.py": mom}, rules=["R4"])
        assert len(findings) == 1
        assert "isinstance(…, Request) outside rpc/server.py" in findings[0].message

    def test_quiet_on_typed_notifications_and_the_dispatcher(self):
        sender = src(
            """
            def failover(endpoint, mom, table):
                endpoint.send(mom, AdminPurge())
                table.send(("plain", "tuple"))
            """
        )
        dispatcher = src(
            """
            def handle_frame(frame):
                return isinstance(frame, Request)
            """
        )
        findings = check_files(
            {"ha/active_standby.py": sender, "rpc/server.py": dispatcher},
            rules=["R4"],
        )
        assert findings == []

# ---------------------------------------------------------------------------
# R6 — codec coverage: the codec's registration contract, checked at import
# ---------------------------------------------------------------------------


def _wire_module(monkeypatch, *classes):
    """An importable module ``wire_fixture`` defining and exporting *classes*."""
    module = types.ModuleType("wire_fixture")
    for cls in classes:
        cls.__module__ = module.__name__
        setattr(module, cls.__name__, cls)
    module.__all__ = [cls.__name__ for cls in classes]
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def _ping():
    """A new record class named ``Ping`` on every call."""

    @dataclass(frozen=True)
    class Ping:
        n: int

    return Ping


class TestR6:
    """Codec coverage is no lint rule: a fresh :class:`Codec` refuses each
    violation when a wire module registers (or :meth:`Codec.self_check`
    audits it), so the golden check of ``WIRE_SCHEMA.lock`` fails on it."""

    def test_fires_on_unregistered_wire_dataclass(self, monkeypatch):
        @dataclass(frozen=True)
        class Pong:
            n: int

        ping = _ping()
        _wire_module(monkeypatch, ping, Pong)
        codec = Codec()
        codec.register(ping)
        with pytest.raises(CodecError, match=r"wire_fixture\.Pong .*no codec entry"):
            codec.self_check()

    def test_quiet_when_registered(self, monkeypatch):
        @dataclass(frozen=True)
        class Local:
            __wire_local__ = "handed to the caller after decode, never encoded"
            n: int

        ping = _ping()
        _wire_module(monkeypatch, ping, Local)
        codec = Codec()
        codec.register(ping)
        codec.self_check()

    def test_plain_classes_need_no_codec(self, monkeypatch):
        class PVFSError(Exception):
            pass

        class Store:
            def get(self):
                return None

        ping = _ping()
        _wire_module(monkeypatch, ping, PVFSError, Store)
        codec = Codec()
        codec.register(ping)
        codec.self_check()

    def test_an_enum_registers_like_a_record(self, monkeypatch):
        class State(enum.Enum):
            A = "a"

        class Plain:
            pass

        ping = _ping()
        _wire_module(monkeypatch, ping, State)
        codec = Codec()
        codec.register(ping)
        with pytest.raises(CodecError, match=r"wire_fixture\.State "):
            codec.self_check()
        with pytest.raises(CodecError, match="neither a dataclass, a NamedTuple nor an Enum"):
            codec.register(Plain)
        codec.register(State)
        codec.self_check()
        assert codec.decode(codec.encode(State.A)) is State.A

    def test_set_typed_field_fires(self):
        @dataclass(frozen=True)
        class Bag:
            items: frozenset[str]

        class Tagged(NamedTuple):
            tags: tuple[set[int], ...]

        codec = Codec()
        for record in (Bag, Tagged):
            with pytest.raises(CodecError, match="set-typed"):
                codec.register(record)
        assert not codec._records_by_type

    def test_name_collision_across_wire_modules_fires(self):
        codec = Codec()
        codec.register(_ping())
        with pytest.raises(CodecError, match="'Ping' already registered"):
            codec.register(_ping())


# ---------------------------------------------------------------------------
# R5 — passive observability
# ---------------------------------------------------------------------------


class TestR5:
    def test_fires_on_mutating_call(self):
        findings = check_source(
            src(
                """
                def hook(network, src, dst, payload):
                    network.send(src, dst, payload)
                """
            ),
            path="obs/bad.py",
        )
        assert rules_of(findings) == ["R5"]

    def test_fires_on_group_send(self):
        """The group send added no verb: a beacon to a group is still
        ``send`` / ``send_raw``, and an observer making one is flagged."""
        findings = check_source(
            src(
                """
                def hook(network, transport, src, peers, payload):
                    network.send(src, tuple(sorted(peers)), payload)
                    transport.send_raw(tuple(sorted(peers)), payload)
                """
            ),
            path="obs/bad.py",
        )
        assert [(f.rule, f.line) for f in findings] == [("R5", 2), ("R5", 3)]

    def test_quiet_on_reads_and_own_state(self):
        findings = check_source(
            src(
                """
                class Collector:
                    def __init__(self):
                        self.rows = []

                    def hook(self, network, payload):
                        self.rows.append(network.stats["sent"])
                        return ", ".join(str(p) for p in payload)
                """
            ),
            path="obs/good.py",
        )
        assert findings == []

    def test_scoped_to_obs(self):
        source = src(
            """
            def f(network, src, dst, p):
                network.send(src, dst, p)
            """
        )
        assert check_source(source, path="gcs/fine.py") == []


# ---------------------------------------------------------------------------
# Ignore directives
# ---------------------------------------------------------------------------


class TestIgnores:
    def test_ignore_suppresses_its_rule(self):
        findings = check_source(
            "cache = {}  # repro-lint: ignore[R2] import-time registry, append-only\n",
            path="rpc/x.py",
        )
        assert findings == []

    def test_ignore_requires_reason(self):
        findings = check_source(
            "cache = {}  # repro-lint: ignore[R2]\n",
            path="rpc/x.py",
        )
        # The directive is rejected (R0) and therefore suppresses nothing.
        assert rules_of(findings) == ["R0", "R2"]

    def test_ignore_is_rule_scoped(self):
        findings = check_source(
            src(
                """
                def f(send, table):
                    for v in table.values():  # repro-lint: ignore[R1] wrong rule on purpose
                        send(v)
                """
            ),
            path="gcs/x.py",
        )
        # ignore[R1] must not silence the R3 finding; and since it
        # suppressed nothing, the directive itself is flagged as unused.
        assert rules_of(findings) == ["R0", "R3"]

    def test_own_line_directive_covers_next_statement(self):
        findings = check_source(
            src(
                """
                def f(send, table):
                    # repro-lint: ignore[R3] replies are commutative here
                    for v in table.values():
                        send(v)
                """
            ),
            path="gcs/x.py",
        )
        assert findings == []

    def test_unused_ignore_is_flagged_on_full_runs_only(self):
        source = "x = 1  # repro-lint: ignore[R3] nothing to suppress\n"
        assert rules_of(check_source(source, path="gcs/x.py")) == ["R0"]
        # Partial runs cannot judge usefulness: an R1-only run must not
        # call an R3 directive unused.
        assert check_source(source, path="gcs/x.py", rules=["R1"]) == []
