"""Tests for Equations 1-3, the Figure 12 table, and the Monte Carlo check."""

import math

import pytest

from repro.ha.availability import (
    downtime_seconds_per_year,
    figure12_row,
    figure12_table,
    format_duration,
    monte_carlo_availability,
    nines,
    node_availability,
    service_availability,
)
from repro.util.errors import ReproError


class TestEquations:
    def test_equation1_paper_value(self):
        # MTTF=5000h, MTTR=72h -> 98.58% (paper's "98.6%")
        a = node_availability(5000, 72)
        assert a == pytest.approx(5000 / 5072)
        assert round(100 * a, 1) == 98.6

    def test_equation1_validation(self):
        with pytest.raises(ReproError):
            node_availability(0, 1)
        with pytest.raises(ReproError):
            node_availability(10, -1)

    def test_equation2_parallel_redundancy(self):
        a = service_availability(0.9, 2)
        assert a == pytest.approx(0.99)
        assert service_availability(0.9, 1) == pytest.approx(0.9)

    def test_equation2_validation(self):
        with pytest.raises(ReproError):
            service_availability(1.5, 2)
        with pytest.raises(ReproError):
            service_availability(0.9, 0)

    def test_equation3(self):
        assert downtime_seconds_per_year(1.0) == 0.0
        assert downtime_seconds_per_year(0.0) == pytest.approx(8760 * 3600)

    def test_monotone_in_nodes(self):
        a_node = node_availability(5000, 72)
        values = [service_availability(a_node, n) for n in range(1, 6)]
        assert values == sorted(values)
        assert values[-1] < 1.0


class TestNines:
    @pytest.mark.parametrize(
        "availability,expected",
        [(0.986, 1), (0.9998, 3), (0.999997, 5), (0.99999996, 7), (0.5, 0)],
    )
    def test_paper_nines_column(self, availability, expected):
        assert nines(availability) == expected

    def test_perfect_availability(self):
        assert nines(1.0) == math.inf

    def test_zero(self):
        assert nines(0.0) == 0


class TestFormatDuration:
    def test_paper_styles(self):
        assert format_duration(5 * 86400 + 4 * 3600 + 21 * 60) == "5d 4h 21min"
        assert format_duration(3600 + 45 * 60) == "1h 45min"
        assert format_duration(90) == "1min 30s"
        assert format_duration(1.26) == "1s"

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            format_duration(-1)


class TestFigure12:
    def test_table_matches_paper(self):
        """Figure 12: availability and downtime for 1-4 head nodes."""
        table = figure12_table(4)
        # Availability column.
        assert round(table[0]["availability_pct"], 1) == 98.6
        assert round(table[1]["availability_pct"], 2) == 99.98
        assert round(table[2]["availability_pct"], 4) == 99.9997
        assert round(table[3]["availability_pct"], 6) == 99.999996
        # Nines column.
        assert [row["nines"] for row in table] == [1, 3, 5, 7]
        # Downtime column (paper: 5d 4h 21min / 1h 45min / 1min 30s / 1s).
        assert table[0]["downtime"] == "5d 4h 21min"
        assert table[1]["downtime"] == "1h 45min"
        assert table[2]["downtime"] == "1min 30s"
        assert table[3]["downtime"] == "1s"

    def test_row_shape(self):
        row = figure12_row(2)
        assert set(row) >= {"nodes", "availability", "nines", "downtime_seconds", "downtime"}

    def test_custom_mttf_mttr(self):
        row = figure12_row(1, mttf_hours=100, mttr_hours=100)
        assert row["availability"] == pytest.approx(0.5)


class TestMonteCarlo:
    def test_single_node_matches_equation1(self):
        result = monte_carlo_availability(
            1, mttf_hours=50, mttr_hours=10, horizon_years=60
        )
        expected = node_availability(50, 10)
        assert result.availability == pytest.approx(expected, abs=0.01)

    def test_two_nodes_match_equation2(self):
        # Short MTTF/MTTR so overlapping outages actually occur.
        result = monte_carlo_availability(
            2, mttf_hours=20, mttr_hours=10, horizon_years=150
        )
        expected = service_availability(node_availability(20, 10), 2)
        assert result.availability == pytest.approx(expected, abs=0.01)

    def test_redundancy_reduces_downtime(self):
        one = monte_carlo_availability(1, mttf_hours=20, mttr_hours=10,
                                       horizon_years=80)
        two = monte_carlo_availability(2, mttf_hours=20, mttr_hours=10,
                                       horizon_years=80)
        assert two.downtime_seconds_per_year < one.downtime_seconds_per_year

    def test_deterministic_given_seed(self):
        a = monte_carlo_availability(2, mttf_hours=20, mttr_hours=10,
                                     horizon_years=20)
        b = monte_carlo_availability(2, mttf_hours=20, mttr_hours=10,
                                     horizon_years=20)
        assert a == b

    def test_validation(self):
        with pytest.raises(ReproError):
            monte_carlo_availability(0)
