"""Admissions that can never be resized: no projection, no retained run.

Only a preemptive scheduler changes a running job's allocation.  Under
the others the fleet trains the job's cell at admission and keeps only
its result; under best-fit it keeps a timing-only clock run, projects
the completion from forks of it, and trains the cell at the finish
event, so no running job holds a parameter vector between events.
Either way the numbers are the committed ones:
``results/fleet_summary.json`` (one rush cell per scheduler), the
trace-scenario hashes and the trace-file hash in
``tests/data/fleet_golden_hashes.json``.

Exact float bit patterns, like the other golden suites: set
``REPRO_GOLDEN_SKIP=1`` on machines whose BLAS rounds differently.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import types
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.runtime import ElasticTrainingRun
from repro.distsim.parameter_server import ShardedParameterServer
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
def admitted_clocks(monkeypatch):
    """``job.clock`` of every admission, read right after ``_admit``."""
    seen = []
    admit = FleetSimulator._admit

    def recording(self, request, now):
        admit(self, request, now)
        seen.append(self._running[request.job_id].clock)

    monkeypatch.setattr(FleetSimulator, "_admit", recording)
    return seen


@pytest.fixture
def no_fork(monkeypatch):
    def fork(self, *args):
        raise AssertionError("a job that cannot be resized was forked")

    monkeypatch.setattr(ElasticTrainingRun, "fork", fork)


#: Not followed by :func:`reachable`: their globals reach the whole
#: program.
OPAQUE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def reachable(root):
    """Every object reachable from ``root`` through instance state."""
    seen, stack = set(), [root]
    while stack:
        value = stack.pop()
        if id(value) in seen or isinstance(value, OPAQUE):
            continue
        seen.add(id(value))
        yield value
        stack.extend(gc.get_referents(value))



class TestNonPreemptiveSchedulers:
    @pytest.mark.parametrize("scheduler", ["fifo", "sjf", "slo"])
    def test_rush_cell_without_fork_or_retained_run(
        self, scheduler, no_fork, admitted_clocks
    ):
        summary = rush_cell(scheduler)
        assert_committed_cell(summary, scheduler)
        assert len(admitted_clocks) == summary.n_jobs
        assert all(clock is None for clock in admitted_clocks)

    def test_fifo_trace_run_matches_its_hash(self, no_fork, admitted_clocks):
        section = GOLDEN["trace_scale"]
        summary = simulate_fleet(
            FleetConfig(
                scenario=section["scenario"],
                seed=section["seed"],
                n_jobs=section["unsharded_n_jobs"],
            )
        )
        assert summary_hash(summary) == section["hashes"]["unsharded"]
        assert admitted_clocks and all(clock is None for clock in admitted_clocks)

    def test_slo_sharded_trace_run_matches_its_hash(
        self, no_fork, admitted_clocks
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
        assert admitted_clocks and all(clock is None for clock in admitted_clocks)

    def test_trace_file_is_byte_identical(self, no_fork, tmp_path, monkeypatch):
        """``fleet --trace PATH``: each cell, run at admission, traces
        its whole run onto the fleet timeline as it goes, so the file
        holds its events in emission order.  The hash pins that order;
        it was re-taken when the tail stopped being buffered to the
        job's completion, after checking the event multiset, the
        summary and the metrics file were unchanged."""
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
    def test_best_fit_holds_no_numeric_state_between_events(
        self, admitted_clocks, monkeypatch
    ):
        forks, holding = [], []
        fork = ElasticTrainingRun.fork

        def counting(self):
            forks.append(self)
            return fork(self)

        schedule = FleetSimulator._schedule

        def checking(self, now):
            schedule(self, now)
            assert not any(
                isinstance(value, ShardedParameterServer)
                for value in reachable(self._running)
            ), f"a running job holds a parameter server at t={now}"
            holding.append(
                sum(job.clock is not None for job in self._running.values())
            )

        monkeypatch.setattr(ElasticTrainingRun, "fork", counting)
        monkeypatch.setattr(FleetSimulator, "_schedule", checking)
        summary = rush_cell("best-fit")
        assert_committed_cell(summary, "best-fit")
        assert summary.preemptions > 0 and summary.restores > 0
        assert max(holding) > 1  # the check saw running clock runs
        assert all(
            isinstance(clock, ElasticTrainingRun) and not clock.session.numerics
            for clock in admitted_clocks
        )
        # One projection per admission plus one per resized job and pass,
        # each a fork of the job's own clock run.
        assert len(forks) > len(admitted_clocks) == summary.n_jobs
        assert {id(run) for run in forks} == {
            id(clock) for clock in admitted_clocks
        }
