"""Shared fixtures for the benchmark harness.

``bench_artifacts.py`` regenerates every ``ARTIFACTS`` entry (one case
per key) and ``bench_ext_compression.py`` the compression extension,
all through the shared :class:`ExperimentRunner`.  The first
(cold-cache) pass trains every underlying configuration — expect ~10
minutes at the default ``REPRO_SCALE=0.0625`` / ``REPRO_SEEDS=3``;
subsequent passes replay from the on-disk cache, so the numbers
pytest-benchmark prints are harness regeneration-from-logs cost.
Rendered reports are printed and saved under ``results/``.

Parallelism: the shared runner executes experiment batches with
``--jobs N`` worker processes (or ``REPRO_JOBS``; default 1).

These files produce artifacts; they are not the performance harness.
Host time is measured by the perf ledger (``benchmarks/ledger``,
named by ``BENCHMARK.json``) and nowhere else.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import ExperimentRunner, render_report, resolve_jobs

RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        action="store",
        type=int,
        default=None,
        help="worker processes for experiment batches "
        "(default: REPRO_JOBS, else 1)",
    )


@pytest.fixture(scope="session")
def jobs(request) -> int:
    """Resolved worker-process count for the benchmark session."""
    return resolve_jobs(request.config.getoption("--jobs"))


@pytest.fixture(scope="session")
def runner(jobs) -> ExperimentRunner:
    """Session-wide experiment runner (env-configurable scale/seeds)."""
    return ExperimentRunner(jobs=jobs)


@pytest.fixture(scope="session")
def emit():
    """Print a report and persist it under ``results/``."""

    def _emit(report, slug: str) -> None:
        text = render_report(report)
        print("\n" + text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{slug}.txt").write_text(text + "\n", encoding="utf-8")

    return _emit
