"""Tests for the fleet-search tuning grid driver and its artifact.

The satellite acceptance check lives here: the same seed yields an
identical ``fleet_tuning_summary`` payload whether the grid executes
inline (``jobs=1``) or across a process pool (``jobs=2``).
"""

import json
import math

import pytest

from repro.experiments import ARTIFACTS
from repro.experiments.fleet import (
    DEFAULT_TUNING_SCENARIOS,
    MODES,
    confidence_interval95,
    fleet_tuning_report,
    run_mode,
    tuning_grid,
    tuning_summary_payload,
)
from repro.fleet import FLEET_SCENARIOS, FleetSummary, JobRequest

SCALE = 0.008

#: Cheap tuning stream: setup 3 searches with exactly two trial jobs,
#: and the late second arrival reuses the tuned policy.
TRACE = (
    JobRequest(job_id=0, arrival=0.0, setup_index=3, n_workers=16),
    JobRequest(job_id=1, arrival=5_000.0, setup_index=3, n_workers=16),
)


def small_grid(cache_dir, jobs=None, seeds=1):
    return tuning_grid(
        scenarios=("trace",),
        seeds=seeds,
        scale=SCALE,
        scheduler="fifo",
        trace=TRACE,
        jobs=jobs,
        cache_dir=cache_dir,
    )


class TestConfidenceInterval:
    def test_single_sample_has_zero_width(self):
        assert confidence_interval95([3.5]) == (3.5, 0.0)

    def test_known_small_sample(self):
        mean, half = confidence_interval95([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        # t(0.975, df=2) = 4.303, s = 1, n = 3.
        assert half == pytest.approx(4.303 / math.sqrt(3), rel=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval95([])


class TestTuningGrid:
    def test_grid_covers_modes_and_seeds(self, tmp_path):
        grid = small_grid(tmp_path, seeds=1)
        assert set(grid) == {("trace", "bsp", 0), ("trace", "tuned", 0)}
        for summary in grid.values():
            assert isinstance(summary, FleetSummary)
        assert grid[("trace", "tuned", 0)].n_search_jobs == 2
        assert grid[("trace", "bsp", 0)].n_search_jobs == 0

    def test_bsp_baseline_rewrites_trace_policies(self, tmp_path):
        # A trace fixes each job's policy, so the baseline cell must
        # rewrite the jobs to static BSP — otherwise the "bsp" rows
        # would silently serve the trace's own sync-switch policies.
        grid = small_grid(tmp_path, seeds=1)
        baseline = grid[("trace", "bsp", 0)]
        assert all(
            record.sync_policy == "bsp" and record.percent == 100.0
            for record in baseline.jobs
        )
        tuned = grid[("trace", "tuned", 0)]
        stream = [r for r in tuned.jobs if r.kind == "train"]
        assert all(r.sync_policy == "sync-switch" for r in stream)

    def test_bsp_baseline_clears_pinned_schedules(self, tmp_path):
        # A job pinned to its own (protocols, fractions) schedule trains
        # that schedule whatever its sync policy; the baseline rewrite
        # must drop the pin, so the rewritten job is a plain BSP job.
        def bsp_record(request, cache):
            grid = tuning_grid(
                scenarios=("trace",), seeds=1, scale=0.002,
                scheduler="fifo", trace=(request,), cache_dir=cache,
            )
            [record] = grid[("trace", "bsp", 0)].jobs
            return record

        job = dict(job_id=0, arrival=0.0, setup_index=1, n_workers=8)
        pinned = bsp_record(
            JobRequest(
                **job, protocols=("bsp", "asp"), fractions=(0.25, 0.75)
            ),
            tmp_path / "pinned",
        )
        plain = bsp_record(
            JobRequest(**job, sync_policy="bsp"), tmp_path / "plain"
        )
        assert pinned == plain

    def test_identical_summary_at_jobs_1_and_jobs_n(
        self, tmp_path_factory
    ):
        """Acceptance: same seed => identical fleet_tuning_summary
        payload at jobs=1 and jobs=N (fresh caches for both)."""
        serial = small_grid(tmp_path_factory.mktemp("serial"), jobs=1)
        parallel = small_grid(tmp_path_factory.mktemp("parallel"), jobs=2)
        payload_serial = tuning_summary_payload(
            serial, ("trace",), 1, SCALE, "fifo"
        )
        payload_parallel = tuning_summary_payload(
            parallel, ("trace",), 1, SCALE, "fifo"
        )
        assert payload_serial == payload_parallel
        assert {key: summary.to_dict() for key, summary in serial.items()} == {
            key: summary.to_dict() for key, summary in parallel.items()
        }

    def test_cached_cells_not_resimulated(self, tmp_path, monkeypatch):
        import repro.experiments.fleet as fleet_module

        first = small_grid(tmp_path)

        def explode(config):
            raise AssertionError("cache miss: tuning cell resimulated")

        monkeypatch.setattr(fleet_module, "simulate_fleet", explode)
        again = small_grid(tmp_path)
        assert {key: summary.to_dict() for key, summary in again.items()} == {
            key: summary.to_dict() for key, summary in first.items()
        }

    def test_tuned_cells_cache_separately_from_plain(self, tmp_path):
        # A tuned sync-switch cell and an untuned one must never share
        # a cache key even with otherwise identical parameters.
        from repro.experiments.fleet import FleetRunRequest

        tuned = FleetRunRequest("rush", "fifo", "sync-switch", tune=True)
        plain = FleetRunRequest("rush", "fifo", "sync-switch", tune=False)
        assert tuned.key(SCALE) != plain.key(SCALE)


class TestTuningSummaryPayload:
    @pytest.fixture(scope="class")
    def grid(self, tmp_path_factory):
        return small_grid(tmp_path_factory.mktemp("payload"), seeds=2)

    @pytest.fixture(scope="class")
    def payload(self, grid):
        return tuning_summary_payload(grid, ("trace",), 2, SCALE, "fifo")

    def test_shape(self, payload):
        assert payload["seeds"] == 2
        entry = payload["scenarios"]["trace"]
        for mode in ("bsp", "tuned"):
            block = entry[mode]
            assert len(block["per_seed_jct"]) == 2
            assert block["ci95"] >= 0.0
        assert "classes" in entry["tuned"]
        assert "search_time_mean" in entry["tuned"]
        assert entry["tuned_speedup_x"] is not None

    def test_classes_aggregated_across_seeds(self, payload):
        classes = payload["scenarios"]["trace"]["tuned"]["classes"]
        assert len(classes) == 1
        row = classes[0]
        assert row["job_class"] == "exp3x16"
        assert len(row["tuned_percent_per_seed"]) == 2
        assert len(row["breakeven_recurrence_per_seed"]) == 2

    def test_payload_is_json_serializable(self, grid, payload, tmp_path):
        _, _, target = run_mode(
            MODES["tuning"],
            out=tmp_path / "tuning.json",
            result=grid,
            scenarios=("trace",),
            seeds=2,
            scale=SCALE,
            scheduler="fifo",
        )
        loaded = json.loads(target.read_text(encoding="utf-8"))
        assert loaded == json.loads(json.dumps(payload))

    def test_report_rows(self, tmp_path_factory):
        grid = small_grid(tmp_path_factory.mktemp("report"), seeds=1)
        payload = tuning_summary_payload(grid, ("trace",), 1, SCALE, "fifo")
        report = fleet_tuning_report(payload)
        assert [row["mode"] for row in report.rows] == ["bsp", "tuned"]
        tuned_row = report.rows[1]
        assert tuned_row["search_s"] is not None
        assert tuned_row["speedup_x"] is not None


class TestArtifactRegistration:
    def test_fleet_search_registered(self):
        assert "fleet-search" in ARTIFACTS

    def test_default_scenarios_exist(self):
        for name in DEFAULT_TUNING_SCENARIOS:
            assert name in FLEET_SCENARIOS
