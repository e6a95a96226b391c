"""Tests for the new report tables: wire-bytes ledgers and the per-shard
ordering-pipeline breakdown (satellites of the observability PR)."""

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import shard_breakdown_lines, wire_bytes_lines


class TestWireBytesLines:
    def test_sorted_by_wire_share_with_total(self):
        lines = wire_bytes_lines(
            {"DataMsg": 300, "Heartbeat": 700},
            {"DataMsg": 450, "Heartbeat": 700, "SchedPollReq": 5000},
        )
        text = "\n".join(lines)
        assert text.index("Heartbeat") < text.index("DataMsg")
        # loopback/dropped-only traffic still appears, with 0 wire bytes
        assert "SchedPollReq" in text and "5000" in text
        assert "70.0%" in text  # heartbeat share of 1000 wire bytes
        assert lines[-1].strip().startswith("TOTAL")

    def test_empty_ledgers(self):
        assert wire_bytes_lines({}, {}) == [
            "  (no wire traffic observed)"
        ]


class TestShardBreakdownLines:
    def fill(self, registry):
        for shard, node in ((0, "head0"), (0, "head1"), (1, "head0")):
            registry.counter("gcs.multicasts", node=node, shard=shard).inc(2)
            registry.counter("gcs.delivered", node=node, shard=shard,
                             service="safe").inc(6)
            registry.counter("gcs.order.assignments", node=node,
                             shard=shard).inc(2)
            registry.histogram("gcs.e2e.delay_s", node=node,
                               shard=shard).observe(0.1)

    def test_one_row_per_shard(self):
        registry = MetricsRegistry()
        self.fill(registry)
        lines = shard_breakdown_lines(registry)
        text = "\n".join(lines)
        rows = [ln for ln in lines if ln.strip() and ln.strip()[0].isdigit()]
        assert len(rows) == 2
        assert "100.00ms" in text  # merged e2e percentiles render as ms

    def test_shard_filter_selects_one_row(self):
        registry = MetricsRegistry()
        self.fill(registry)
        rows = [
            ln for ln in shard_breakdown_lines(registry, 1)
            if ln.strip() and ln.strip()[0].isdigit()
        ]
        [row] = rows
        assert row.strip().startswith("1")

    def test_unlabelled_registry_reports_single_group(self):
        registry = MetricsRegistry()
        registry.counter("gcs.multicasts", node="head0").inc()
        [line] = shard_breakdown_lines(registry)
        assert "single-group run" in line
        [line] = shard_breakdown_lines(registry, 3)
        assert "shard=3" in line
