"""Unit tests for ServiceProbe and WorkloadReport."""

import pytest

from repro.ha.probe import ServiceProbe, WorkloadReport
from repro.sim import Kernel


def make_probe(kernel, fail_windows):
    """A probe whose attempts fail inside any of the given time windows."""

    def attempt():
        now = kernel.now
        yield kernel.timeout(0.01)
        for start, end in fail_windows:
            if start <= now < end:
                raise RuntimeError("service down")

    return ServiceProbe(kernel, attempt)


class TestServiceProbe:
    def test_all_up(self):
        kernel = Kernel()
        probe = make_probe(kernel, [])
        kernel.run(until=10.0)
        assert probe.failures == 0
        assert probe.availability() == 1.0
        assert probe.total_downtime() == 0.0

    def test_single_window(self):
        kernel = Kernel()
        probe = make_probe(kernel, [(3.0, 7.0)])
        kernel.run(until=20.0)
        [window] = probe.downtime_windows()
        assert window[0] >= 3.0 and window[1] <= 8.1
        assert 3.0 <= probe.total_downtime() <= 5.0

    def test_multiple_windows(self):
        kernel = Kernel()
        probe = make_probe(kernel, [(2.0, 4.0), (10.0, 12.0)])
        kernel.run(until=20.0)
        assert len(probe.downtime_windows()) == 2

    def test_open_window_extends_to_last_sample(self):
        kernel = Kernel()
        probe = make_probe(kernel, [(5.0, 1e9)])
        kernel.run(until=10.0)
        [window] = probe.downtime_windows()
        assert window[1] > window[0]

    def test_availability_fraction(self):
        kernel = Kernel()
        probe = make_probe(kernel, [(0.0, 5.0)])
        kernel.run(until=10.5)
        # 5 failing probes of 10 -> 50%.
        assert probe.availability() == pytest.approx(0.5, abs=0.1)

    def test_stop_halts_sampling(self):
        kernel = Kernel()
        probe = make_probe(kernel, [])
        kernel.run(until=3.5)
        probe.stop()
        count = probe.attempts
        kernel.run(until=10.0)
        assert probe.attempts == count

    def test_empty_probe_reports_up(self):
        kernel = Kernel()
        probe = make_probe(kernel, [])
        assert probe.availability() == 1.0


class TestWorkloadReport:
    def test_summary_row_shape(self):
        report = WorkloadReport(
            model="x", submitted=10, completed=8, lost=2,
            restarted=1, submit_failures=3,
            probe_downtime=4.5, probe_availability=0.9,
        )
        row = report.summary_row()
        assert row["model"] == "x"
        assert row["downtime_s"] == 4.5
        assert row["availability"] == 0.9
        assert row["lost"] == 2
