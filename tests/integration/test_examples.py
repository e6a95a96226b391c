"""The examples are part of the public contract: they must keep running.

Each example script asserts its own claims internally (exactly-once,
consistency, zero loss); these tests execute them end to end. The two
heaviest are exercised through the experiments they demonstrate instead
(``test_figure_claims.py``: failover_comparison by the HA-model ranking,
high_throughput_biology by Figure 11).
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "zero downtime, zero restarts" in out


def test_pvfs_metadata_ha(capsys):
    out = run_example("pvfs_metadata_ha.py", capsys)
    assert "identical namespace" in out


def test_rolling_maintenance(capsys):
    out = run_example("rolling_maintenance.py", capsys)
    assert "fully swapped: True" in out


def test_functional_testing(capsys):
    out = run_example("functional_testing.py", capsys)
    assert "11/11 checks passed" in out


def test_availability_analysis(capsys):
    out = run_example("availability_analysis.py", capsys)
    assert "redundancy beats component quality" in out
    assert "5d 4h 21min" in out
