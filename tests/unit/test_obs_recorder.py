"""Tests for the flight recorder: rings, triggers, bundles, rendering.

Unit layer only — the postmortem contents of a real faulted run are held
by ``tests/integration/test_postmortem.py``; here every piece is driven
directly: ring bounding and eviction, the three capture triggers (invariant
violations reach it through ``collector_of(network).recorder``, sanitizer
findings via ``on_finding``, exhausted RPC conversations via the span
stream), the per-reason bundle cap, causal merging, the JSONL write/read
round trip behind ``repro postmortem``, and the compact state the
observers keep: spans without a dict, bundles holding the rings' own
entries.
"""

import pytest

from repro.net import Address, Network
from repro.obs.collector import collector_of
from repro.obs.events import TraceEvent
from repro.obs.recorder import (
    FlightRecorder,
    attach_recorder,
    read_bundle,
    timeline_lines,
    write_bundle,
)
from repro.sim import Kernel
from repro.sim.sanitizer import Ambiguity


def make_network():
    kernel = Kernel()
    network = Network(kernel)
    for node in ("head0", "head1"):
        network.register_node(node)
    return kernel, network


def span(kind="job.submit", node="head0", time=1.0, trace_id=None, **fields):
    return TraceEvent(time, kind, node, trace_id, tuple(fields),
                      tuple(fields.values()))


def ring_records(recorder, node):
    """*node*'s ring, oldest first, as export records, read through a
    capture."""
    bundle = recorder.capture("test", "read the rings")
    return [record for record in bundle["records"] if record["node"] == node]


class TestRings:
    def test_spans_land_in_their_nodes_ring(self):
        _, network = make_network()
        recorder = attach_recorder(network)
        recorder.on_trace_event(span(node="head0"))
        recorder.on_trace_event(span(node="head1", kind="job.run"))
        assert sorted(recorder.rings) == ["head0", "head1"]
        assert ring_records(recorder, "head0")[0]["kind"] == "job.submit"
        assert recorder.observed == 2

    def test_frames_recorded_against_the_sender(self):
        _, network = make_network()
        recorder = attach_recorder(network)
        recorder.on_frame(2.5, Address("head0", 9), Address("head1", 9),
                          "DataMsg", 120, None)
        [record] = ring_records(recorder, "head0")
        assert record["type"] == "frame"
        assert record["kind"] == "DataMsg" and record["size"] == 120
        assert record["dst"] == "head1:9"

    def test_ring_is_bounded_and_evicts_oldest(self):
        _, network = make_network()
        recorder = attach_recorder(network)
        recorder.ring_limit = 4
        for i in range(10):
            recorder.on_trace_event(span(time=float(i), seq=i))
        ring = ring_records(recorder, "head0")
        assert len(ring) == 4
        assert [r["fields"]["seq"] for r in ring] == [6, 7, 8, 9]
        assert recorder.observed == 10  # eviction never decrements

    def test_real_network_sends_feed_the_ring(self):
        kernel, network = make_network()
        recorder = attach_recorder(network)
        src, dst = Address("head0", 9), Address("head1", 9)
        endpoint = network.bind("head0", 9)
        network.bind("head1", 9)
        network.send(src, dst, ("ping", 1))
        kernel.run(until=1.0)
        assert any(r["type"] == "frame" for r in ring_records(recorder, "head0"))


class TestCompactState:
    def test_a_recorded_span_holds_no_dict(self):
        _, network = make_network()
        attach_recorder(network)
        collector = collector_of(network)
        server = Address("head1", 5)
        collector.rpc_request("login", server, 7, object(), 1)
        collector.rpc_request("login", server, 8, object(), 1)
        collector.record("job.submit", "head0", None, ("job",), ("1.head0",))
        first, second, job = collector.events
        assert "fields" not in TraceEvent.__slots__
        for event in collector.events:
            assert not any(isinstance(getattr(event, slot), dict)
                           for slot in TraceEvent.__slots__)
        # One tuple of names per span kind, one spelling per address.
        assert first.keys is second.keys
        assert first.values[1] == "head1:5"
        assert first.values[1] is second.values[1]
        # Each read builds a fresh dict, so no reader can change a span.
        assert job.fields == job.fields == {"job": "1.head0"}
        assert job.fields is not job.fields
        job.fields["job"] = "changed"
        assert job.get("job") == "1.head0"

    def test_a_bundle_captured_twice_holds_the_rings_own_spans(self):
        _, network = make_network()
        recorder = attach_recorder(network)
        recorder.on_trace_event(span(node="head0", time=1.0))
        recorder.on_frame(1.5, Address("head0", 9), Address("head1", 9),
                          "DataMsg", 99, None)
        recorder.on_trace_event(span(node="head1", time=2.0))
        first = recorder.capture("test", "first")
        assert len(list(first["records"])) == 3
        second = recorder.capture("test", "second")
        held = [entry for node in ("head0", "head1")
                for entry in recorder.rings[node]]
        for bundle in (first, second):
            entries = bundle["records"].entries
            assert len(entries) == len(held) == 3
            assert all(a is b for a, b in zip(entries, held))
        assert first["records"] == second["records"]

    def test_reading_a_bundle_leaves_spans_and_frames_in_the_ring(self):
        _, network = make_network()
        recorder = attach_recorder(network)
        recorder.on_trace_event(span(node="head0", time=1.0))
        recorder.on_frame(1.5, Address("head0", 9), Address("head1", 9),
                          "DataMsg", 99, None)
        bundle = recorder.capture("test", "read")
        assert [r["type"] for r in bundle["records"]] == ["span", "frame"]
        timeline_lines(bundle)
        event, frame = recorder.rings["head0"]
        assert type(event) is TraceEvent
        assert frame == (1.5, Address("head0", 9), Address("head1", 9),
                         "DataMsg", 99)


class TestTriggers:
    def test_exhausted_rpc_conversation_captures(self):
        _, network = make_network()
        recorder = attach_recorder(network)
        recorder.on_trace_event(span(kind="rpc.call", outcome="ok"))
        assert recorder.bundles == []
        recorder.on_trace_event(span(
            kind="rpc.call", outcome="timeout", request="JSubReq",
            dst="head1:5", attempts=4,
        ))
        [bundle] = recorder.bundles
        assert bundle["reason"] == "rpc-exhausted"
        assert "JSubReq" in bundle["detail"] and "4 attempt" in bundle["detail"]

    def test_sanitizer_finding_captures(self):
        _, network = make_network()
        recorder = attach_recorder(network)
        recorder.on_sanitizer_finding(Ambiguity(3.0, 0, "timeout cb=foo", 2))
        [bundle] = recorder.bundles
        assert bundle["reason"] == "sanitizer-ambiguity"
        assert "fingerprint" in bundle["detail"]

    def test_sanitizing_kernel_wires_on_finding(self):
        kernel = Kernel(sanitize=True)
        network = Network(kernel)
        network.register_node("head0")
        recorder = attach_recorder(network)
        assert kernel.sanitizer.on_finding == recorder.on_sanitizer_finding

    def test_per_reason_cap_keeps_first_and_counts_dropped(self):
        _, network = make_network()
        recorder = attach_recorder(network)
        recorder.max_bundles = 2
        for i in range(5):
            recorder.capture("invariant:total-order", f"breach {i}")
        recorder.capture("rpc-exhausted", "different reason still captured")
        assert len(recorder.bundles) == 3
        assert [b["detail"] for b in recorder.bundles[:2]] == [
            "breach 0", "breach 1",
        ]
        assert recorder.dropped_bundles == 3

    def test_capture_returns_bundle_even_past_cap(self):
        _, network = make_network()
        recorder = attach_recorder(network)
        recorder.max_bundles = 1
        recorder.capture("x", "first")
        bundle = recorder.capture("x", "second")
        assert bundle["detail"] == "second"
        assert len(recorder.bundles) == 1


class TestCaptureMerging:
    def test_records_merge_time_sorted_across_nodes(self):
        _, network = make_network()
        recorder = attach_recorder(network)
        recorder.on_trace_event(span(node="head1", time=2.0, kind="b"))
        recorder.on_trace_event(span(node="head0", time=1.0, kind="a"))
        recorder.on_trace_event(span(node="head0", time=3.0, kind="c"))
        bundle = recorder.capture("test", "merge")
        assert [r["kind"] for r in bundle["records"]] == ["a", "b", "c"]
        assert bundle["nodes"] == ["head0", "head1"]
        assert bundle["record_count"] == 3

    def test_same_time_records_keep_per_node_order(self):
        _, network = make_network()
        recorder = attach_recorder(network)
        recorder.on_trace_event(span(node="head0", time=1.0, kind="first"))
        recorder.on_trace_event(span(node="head0", time=1.0, kind="second"))
        bundle = recorder.capture("test", "stable")
        assert [r["kind"] for r in bundle["records"]] == ["first", "second"]


class TestAttachment:
    def test_attach_is_idempotent(self):
        _, network = make_network()
        recorder = attach_recorder(network)
        assert attach_recorder(network) is recorder
        assert collector_of(network).recorder is recorder
        assert network.on_frame == [recorder.on_frame]

    def test_recorder_rides_the_collector_event_stream(self):
        _, network = make_network()
        recorder = attach_recorder(network)
        collector = collector_of(network)
        collector.record("job.submit", "head0", None, ("job",), ("1.head0",))
        [record] = ring_records(recorder, "head0")
        assert record["kind"] == "job.submit"


class TestBundleIO:
    def make_bundle(self):
        _, network = make_network()
        recorder = attach_recorder(network)
        recorder.on_trace_event(span(time=1.0, trace_id="job-1", queue="workq"))
        recorder.on_frame(1.5, Address("head0", 9), Address("head1", 9),
                          "DataMsg", 99, None)
        return recorder.capture("invariant:total-order", "head1 diverged")

    def test_write_read_round_trip(self, tmp_path):
        bundle = self.make_bundle()
        path = tmp_path / "bundle.jsonl"
        lines = write_bundle(bundle, path)
        assert lines == 1 + len(bundle["records"])
        loaded = read_bundle(path)
        assert loaded == bundle

    def test_read_rejects_empty_and_foreign_files(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_bundle(empty)
        foreign = tmp_path / "foreign.jsonl"
        foreign.write_text('{"type": "span"}\n')
        with pytest.raises(ValueError, match="not a postmortem"):
            read_bundle(foreign)

    def test_timeline_renders_header_spans_and_frames(self):
        bundle = self.make_bundle()
        lines = timeline_lines(bundle)
        assert lines[0].startswith("POSTMORTEM [invariant:total-order]")
        assert "head1 diverged" in lines[1]
        text = "\n".join(lines)
        assert "job.submit" in text and "queue='workq'" in text
        assert "FRAME DataMsg" in text and "(99B)" in text

    def test_timeline_limit_shows_last_records(self):
        _, network = make_network()
        recorder = attach_recorder(network)
        for i in range(6):
            recorder.on_trace_event(span(time=float(i), kind=f"k{i}"))
        bundle = recorder.capture("test", "limit")
        lines = timeline_lines(bundle, limit=2)
        text = "\n".join(lines)
        assert "k5" in text and "k4" in text and "k0" not in text
        assert "last 2 shown" in text
