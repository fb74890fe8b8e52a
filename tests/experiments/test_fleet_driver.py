"""Tests for the fleet scenario driver and its executor integration."""

import json
from dataclasses import replace

import pytest

import repro.experiments.fleet as fleet_module
import repro.mlcore.datasets as datasets_module
from repro.experiments import ARTIFACTS, ExperimentRunner, prefetch_union
from repro.experiments.fleet import (
    MODES,
    FleetRunRequest,
    FleetShardRequest,
    fleet_grid,
    fleet_report,
    run_mode,
)
from repro.experiments.setups import SETUPS
from repro.fleet import FleetSimulator, FleetSummary, JobRequest

SCALE = 0.008


@pytest.fixture(scope="module")
def tiny_grid(tmp_path_factory):
    cache = tmp_path_factory.mktemp("fleet-cache")
    grid = fleet_grid(
        scenario="rush",
        schedulers=("fifo",),
        policies=("sync-switch", "bsp"),
        seed=0,
        scale=SCALE,
        n_jobs=2,
        cache_dir=cache,
    )
    return grid, cache


class TestFleetRunRequest:
    def test_key_stable_and_distinct(self):
        base = FleetRunRequest("rush", "fifo", "sync-switch", seed=0)
        assert base.key(SCALE) == FleetRunRequest(
            "rush", "fifo", "sync-switch", seed=0
        ).key(SCALE)
        variants = {
            base.key(SCALE),
            FleetRunRequest("rush", "sjf", "sync-switch", 0).key(SCALE),
            FleetRunRequest("rush", "fifo", "bsp", 0).key(SCALE),
            FleetRunRequest("rush", "fifo", "sync-switch", 1).key(SCALE),
            base.key(0.01),
        }
        assert len(variants) == 5

    def test_key_differs_from_training_cells(self):
        # Fleet cells share the cache directory with training cells;
        # the "fleet" kind marker keeps the namespaces apart.
        from repro.experiments.executor import cache_key
        from repro.experiments.setups import SETUPS

        fleet_key = FleetRunRequest("rush", "fifo", "bsp", 0).key(SCALE)
        training = cache_key(
            SETUPS[1], {"kind": "switch", "percent": 100.0}, 0, SCALE
        )
        assert fleet_key != training


class TestCacheKeySchema:
    """Literal digests of the fleet key payloads: plain, traced, shard.

    The perf ledger's pinned digests hash cache *file names*, so a
    changed key payload (a field added, dropped or renamed) must fail
    here, in seconds, not as digest mismatches across three workloads.
    """

    CELL = FleetRunRequest("rush", "best-fit", "sync-switch", 0, n_jobs=3)

    def test_run_request_key_is_pinned(self):
        assert self.CELL.key(0.002) == "961328679c3fce9ba8d02f17"

    def test_traced_key_is_pinned(self):
        # A cell is traced exactly when trace_detail is set; its key
        # wraps the plain payload's digest in the "fleet-trace" kind.
        traced = replace(self.CELL, trace_detail="job")
        assert traced.key(0.002) == "15c3e06a0cc7c1328e9da11d"

    def test_shard_request_key_is_pinned(self):
        shard = FleetShardRequest(
            scenario="trace",
            shard_index=0,
            n_shards=2,
            trace=(
                JobRequest(job_id=0, arrival=0.0, setup_index=1,
                           n_workers=8, sync_policy="asp"),
            ),
            pool_size=32,
            scheduler="slo",
            sync_policy="sync-switch",
        )
        assert shard.key(0.001) == "4a0952191592df03fb2b72d8"


class TestCellDatasets:
    """A fleet cell names the datasets its stream trains on; the
    executor builds exactly those before the cell runs."""

    @pytest.mark.parametrize(
        "scenario, expected",
        [
            ("rush", {"cifar10-sim"}),
            ("mixed", {"cifar10-sim", "cifar100-sim"}),
            ("heavy", {"cifar10-sim"}),  # setups 1 and 3
            ("trace", {"cifar10-sim", "cifar100-sim"}),
        ],
    )
    def test_run_request_reads_the_simulators_stream(self, scenario, expected):
        request = FleetRunRequest(scenario, "best-fit", "sync-switch", n_jobs=3)
        stream = FleetSimulator(request.config(0.002)).stream
        assert request.datasets(0.002) == expected == {
            SETUPS[job.setup_index].dataset for job in stream
        }

    def test_trace_fed_and_shard_cells_read_their_trace(self):
        trace = (
            JobRequest(job_id=0, arrival=0.0, setup_index=2, n_workers=8),
        )
        cell = FleetRunRequest("trace", "fifo", "bsp", trace=trace)
        shard = FleetShardRequest(
            "trace", 0, 1, trace, pool_size=16, scheduler="fifo",
            sync_policy="bsp",
        )
        assert cell.datasets(SCALE) == shard.datasets(SCALE) == {"cifar100-sim"}

    def test_rush_best_fit_cell_builds_no_cifar100(self, tmp_path, monkeypatch):
        seen = []
        execute = fleet_module._execute_fleet_cell

        def recording(payload):
            seen.append(sorted(datasets_module._CACHE))
            return execute(payload)

        monkeypatch.setattr(datasets_module, "_CACHE", {})
        monkeypatch.setattr(fleet_module, "_execute_fleet_cell", recording)
        fleet_grid(
            scenario="rush",
            schedulers=("best-fit",),
            policies=("sync-switch",),
            scale=0.002,
            jobs=1,
            cache_dir=tmp_path,
            n_jobs=3,
        )
        assert seen == [["cifar10-sim"]]  # built before the cell ran
        assert sorted(datasets_module._CACHE) == ["cifar10-sim"]


class TestFleetGrid:
    def test_grid_covers_all_cells(self, tiny_grid):
        grid, _ = tiny_grid
        assert set(grid) == {("fifo", "sync-switch"), ("fifo", "bsp")}
        for summary in grid.values():
            assert isinstance(summary, FleetSummary)
            assert summary.n_jobs == 2

    def test_cached_cells_never_resimulated(self, tiny_grid, monkeypatch):
        grid, cache = tiny_grid

        def explode(config):
            raise AssertionError("cache miss: fleet cell resimulated")

        monkeypatch.setattr(fleet_module, "simulate_fleet", explode)
        again = fleet_grid(
            scenario="rush",
            schedulers=("fifo",),
            policies=("sync-switch", "bsp"),
            seed=0,
            scale=SCALE,
            n_jobs=2,
            cache_dir=cache,
        )
        assert {
            key: summary.to_dict() for key, summary in again.items()
        } == {key: summary.to_dict() for key, summary in grid.items()}

    def test_cache_entries_are_valid_json(self, tiny_grid):
        _, cache = tiny_grid
        entries = sorted(cache.glob("*.json"))
        assert len(entries) == 2
        for path in entries:
            data = json.loads(path.read_text(encoding="utf-8"))
            assert FleetSummary.from_dict(data).scenario == "rush"
        assert not list(cache.glob("*.tmp"))


class TestFleetReportAndArtifact:
    def test_report_rows(self, tiny_grid):
        grid, _ = tiny_grid
        report = fleet_report(grid, "rush")
        assert len(report.rows) == 2
        assert "mean_jct_s" in report.columns
        schedulers = {row["scheduler"] for row in report.rows}
        assert schedulers == {"fifo"}

    def test_write_summary_artifact(self, tiny_grid, tmp_path):
        grid, _ = tiny_grid
        _, _, target = run_mode(
            MODES["grid"],
            out=tmp_path / "fleet_summary.json",
            result=grid,
            scenario="rush",
            scale=SCALE,
            seed=0,
        )
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["scenario"] == "rush"
        assert len(payload["cells"]) == 2
        assert {cell["sync_policy"] for cell in payload["cells"]} == {
            "bsp",
            "sync-switch",
        }

    def test_artifact_registered(self):
        assert "fleet" in ARTIFACTS

    def test_artifact_skipped_by_union_prefetch(self, tmp_path):
        # The fleet artifact is not expressible as training cells, so a
        # cross-artifact union prefetch must not simulate anything.
        runner = ExperimentRunner(
            scale=SCALE, seeds=1, cache_dir=tmp_path, jobs=1
        )
        assert prefetch_union(runner, [ARTIFACTS["fleet"]]) == 0
        assert list(tmp_path.glob("*.json")) == []
