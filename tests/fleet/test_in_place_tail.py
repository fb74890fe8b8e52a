"""Admissions that can never be resized: no projection, no retained run.

Only a preemptive scheduler changes a running job's allocation.  Under
the others the fleet trains the asynchronous tail on the job's own run
and lets go of it at admission; under best-fit it projects the
completion from a numerics-free fork and keeps the paused run for the
next resize.  Either way the numbers are the
committed ones: ``results/fleet_summary.json`` (one rush cell per
scheduler), the trace-scenario hashes and the trace-file hash in
``tests/data/fleet_golden_hashes.json``.

Exact float bit patterns, like the other golden suites: set
``REPRO_GOLDEN_SKIP=1`` on machines whose BLAS rounds differently.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.runtime import ElasticTrainingRun
from repro.experiments.fleet import run_trace_scale
from repro.fleet import FleetConfig, FleetSimulator, FleetSummary, simulate_fleet

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = json.loads(
    (ROOT / "tests" / "data" / "fleet_golden_hashes.json").read_text(
        encoding="utf-8"
    )
)
SUMMARY = json.loads(
    (ROOT / "results" / "fleet_summary.json").read_text(encoding="utf-8")
)
CELLS = {
    (cell["scheduler"], cell["sync_policy"]): cell for cell in SUMMARY["cells"]
}

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_GOLDEN_SKIP", "") not in ("", "0"),
    reason="REPRO_GOLDEN_SKIP set (BLAS float bits differ here)",
)


def summary_hash(summary: FleetSummary) -> str:
    payload = json.dumps(summary.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def rush_cell(scheduler: str) -> FleetSummary:
    return simulate_fleet(
        FleetConfig(
            scenario=SUMMARY["scenario"],
            scheduler=scheduler,
            sync_policy="sync-switch",
            seed=SUMMARY["seed"],
            scale=SUMMARY["scale"],
        )
    )


def assert_committed_cell(summary: FleetSummary, scheduler: str) -> None:
    cell = CELLS[(scheduler, "sync-switch")]
    for metric, expected in cell.items():
        if metric not in ("scheduler", "sync_policy"):
            assert getattr(summary, metric) == expected, metric


@pytest.fixture
def admitted_sims(monkeypatch):
    """``job.sim`` of every admission, read right after ``_admit``."""
    seen = []
    admit = FleetSimulator._admit

    def recording(self, request, now):
        admit(self, request, now)
        seen.append(self._running[request.job_id].sim)

    monkeypatch.setattr(FleetSimulator, "_admit", recording)
    return seen


@pytest.fixture
def no_fork(monkeypatch):
    def fork(self, *args):
        raise AssertionError("a job that cannot be resized was forked")

    monkeypatch.setattr(ElasticTrainingRun, "fork", fork)
    monkeypatch.setattr(ElasticTrainingRun, "timing_fork", fork)


class TestNonPreemptiveSchedulers:
    @pytest.mark.parametrize("scheduler", ["fifo", "sjf", "slo"])
    def test_rush_cell_without_fork_or_retained_run(
        self, scheduler, no_fork, admitted_sims
    ):
        summary = rush_cell(scheduler)
        assert_committed_cell(summary, scheduler)
        assert len(admitted_sims) == summary.n_jobs
        assert all(sim is None for sim in admitted_sims)

    def test_fifo_trace_run_matches_its_hash(self, no_fork, admitted_sims):
        section = GOLDEN["trace_scale"]
        summary = simulate_fleet(
            FleetConfig(
                scenario=section["scenario"],
                seed=section["seed"],
                n_jobs=section["unsharded_n_jobs"],
            )
        )
        assert summary_hash(summary) == section["hashes"]["unsharded"]
        assert admitted_sims and all(sim is None for sim in admitted_sims)

    def test_slo_sharded_trace_run_matches_its_hash(
        self, no_fork, admitted_sims
    ):
        section = GOLDEN["trace_scale"]
        merged, _ = run_trace_scale(
            scenario=section["scenario"],
            scheduler="slo",
            seed=section["seed"],
            n_jobs=section["n_jobs"],
            shards=section["shards"],
            jobs=1,  # inline: the patches above reach every shard
            cache_dir="off",
        )
        assert summary_hash(merged) == section["hashes"]["merged"]
        assert admitted_sims and all(sim is None for sim in admitted_sims)

    def test_trace_file_is_byte_identical(self, no_fork, tmp_path, monkeypatch):
        """``fleet --trace PATH``: the in-place tail's events reach the
        file at the job's completion, where a projection's used to.
        The hash was taken at the commit before the in-place tail
        existed."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        section = GOLDEN["trace_file"]
        trace_path = tmp_path / "trace.json"
        argv = ["--quiet", *section["command"].split()] + [
            "--trace", str(trace_path), "--out", str(tmp_path / "out.json"),
        ]
        assert main(argv) == 0
        digest = hashlib.sha256(trace_path.read_bytes()).hexdigest()
        assert digest == section["sha256"]


class TestPreemptiveScheduler:
    def test_best_fit_still_forks_and_keeps_the_paused_run(
        self, admitted_sims, monkeypatch
    ):
        forks = []
        fork = ElasticTrainingRun.timing_fork

        def counting(self, diverges_at=None):
            forks.append(self)
            return fork(self, diverges_at)

        monkeypatch.setattr(ElasticTrainingRun, "timing_fork", counting)
        summary = rush_cell("best-fit")
        assert_committed_cell(summary, "best-fit")
        assert summary.preemptions > 0 and summary.restores > 0
        assert all(
            isinstance(sim, ElasticTrainingRun) for sim in admitted_sims
        )
        # One projection per admission plus one per resized job and pass,
        # each from the job's own kept run.
        assert len(forks) > len(admitted_sims) == summary.n_jobs
        assert {id(run) for run in forks} == {id(sim) for sim in admitted_sims}
