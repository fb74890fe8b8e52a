"""Structural tests for the figure/table generators (tiny scale).

These verify every artifact generator produces well-formed reports; the
quantitative paper-shape assertions live in
``tests/integration/test_paper_claims.py`` and the benchmark harness.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import ARTIFACTS, render_report
from repro.experiments.figures import figure_2, figure_5a, figure_8a
from repro.experiments.search_analysis import cost_simulator, table_2
from repro.experiments.setups import SETUPS
from repro.experiments.straggler_fig import STRAGGLER_SCENARIOS
from repro.experiments.tables import table_1, table_3


def test_artifact_registry_covers_every_paper_artifact():
    expected = {
        "fig2", "fig4a", "fig4b", "fig5a", "fig5b", "fig8a", "fig8b",
        "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
        "tab1", "tab2", "tab3", "tab4", "tab5", "tab6",
        "fleet",  # beyond the paper: the multi-tenant scenario grid
        "fleet-search",  # beyond the paper: amortized in-fleet tuning
        "fleet-trace",  # beyond the paper: traced-run metrics timeline
        "fleet-trace-scale",  # beyond the paper: sharded datacenter trace
    }
    assert set(ARTIFACTS) == expected


def test_bench_artifacts_collects_one_case_per_registry_key():
    """``benchmarks/bench_artifacts.py`` is the registry, nothing more:
    its collected ids are ``sorted(ARTIFACTS)`` (collect-only, nothing
    is trained)."""
    repo = Path(__file__).resolve().parents[2]
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "benchmarks/bench_artifacts.py",
            "--collect-only", "-q", "-p", "no:cacheprovider",
            "-o", "python_files=bench_*.py",
            "-o", "python_functions=bench_*",
        ],
        cwd=repo,
        env={**os.environ, "PYTHONPATH": str(repo / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    prefix = "benchmarks/bench_artifacts.py::bench_artifact["
    collected = [
        line[len(prefix):-1]
        for line in done.stdout.splitlines()
        if line.startswith(prefix)
    ]
    assert collected == sorted(ARTIFACTS)


def test_figure_2_report_structure(tiny_runner):
    report = figure_2(tiny_runner)
    assert report.ident == "Figure 2"
    labels = report.column_values("configuration")
    assert labels == ["BSP", "ASP", "Switching 25%", "Switching 50%"]
    bsp_row = report.rows[0]
    assert bsp_row["normalized_time"] == pytest.approx(1.0)
    text = render_report(report)
    assert "Figure 2" in text


def test_figure_5a_includes_reversed_order(tiny_runner):
    report = figure_5a(tiny_runner)
    assert report.column_values("order") == ["BSP", "BSP->ASP", "ASP->BSP", "ASP"]


def test_figure_8a_two_batch_sizes(tiny_runner):
    report = figure_8a(tiny_runner)
    assert report.column_values("asp_batch_size") == [1024, 128]
    values = report.column_values("imgs_per_s")
    assert all(value and value > 0 for value in values)


def test_table_1_rows_per_setup(tiny_runner):
    report = table_1(tiny_runner)
    assert report.column_values("setup") == [1, 2, 3]
    assert report.paper_rows is not None


def test_table_3_is_scale_independent(tiny_runner):
    report = table_3(tiny_runner)
    parallel_8 = next(
        row
        for row in report.rows
        if row["cluster"] == "8 K80" and "Parallel" in row["actuator"]
    )
    assert parallel_8["switching_s"] == pytest.approx(36.0)


def test_straggler_scenarios_match_paper():
    assert STRAGGLER_SCENARIOS[1] == {
        "n": 1, "occurrences": 1, "latency": 0.010,
    }
    assert STRAGGLER_SCENARIOS[2] == {
        "n": 2, "occurrences": 4, "latency": 0.030,
    }


def test_cost_simulator_ground_truth_in_sweep_grid(tiny_runner):
    simulator = cost_simulator(tiny_runner, SETUPS[1])
    assert 0.0 <= simulator.ground_truth_fraction <= 1.0


def test_table_2_has_nine_settings(tiny_runner):
    report = table_2(tiny_runner, n_simulations=50)
    assert len(report.rows) == 9
    assert len(report.paper_rows) == 9
    for row in report.rows:
        assert row["search_cost_x"] > 0
        assert 0.0 <= row["success_probability"] <= 1.0
