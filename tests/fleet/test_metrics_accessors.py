"""Tests for the fleet summary's empty-group aggregates and the merge.

The stream headline and each tenant-tier row are one fold over job
records.  Empty groups are ordinary at trace scale (a tier whose every
job was rejected, a stream without deadline jobs): their percentile and
attainment come out ``None`` with a 0 count, never an error, and a tier
no record carries has no row.
"""

import pytest

from repro.errors import ConfigurationError
from repro.fleet.metrics import (
    JobRecord,
    merge_fleet_summaries,
    percentile,
    summarize_fleet,
)


def record(job_id: int, **overrides) -> JobRecord:
    base = {
        "job_id": job_id,
        "setup_index": 1,
        "sync_policy": "sync-switch",
        "percent": 50.0,
        "demand": 8,
        "arrival": float(job_id),
        "start": float(job_id),
        "finish": float(job_id) + 10.0,
        "preemptions": 0,
        "restores": 0,
        "accuracy": 0.9,
        "diverged": False,
        "completed_steps": 100,
        "images": 12800,
        "outcome": "completed",
    }
    base.update(overrides)
    return JobRecord(**base)


def summarize(records, scenario="rush", pool_size=16, busy=0.0, **kwargs):
    return summarize_fleet(
        scenario,
        "fifo",
        "sync-switch",
        0,
        0.008,
        pool_size,
        records,
        busy,
        **kwargs,
    )


class TestPercentile:
    def test_empty_sample_returns_none(self):
        assert percentile([], 0.95) is None

    def test_nearest_rank(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.5) == 2.0
        assert percentile(values, 0.95) == 4.0
        assert percentile(values, 1.0) == 4.0
        assert percentile([7.5], 0.95) == 7.5


def tier_row(summary, name: str) -> dict | None:
    """The summary's row for tenant tier ``name``; None without one."""
    rows = {row["tier"]: row for row in summary.tiers or ()}
    return rows.get(name)


class TestEmptyGroupAccessors:
    def test_unknown_tier_returns_none_not_raise(self):
        summary = summarize([record(0, tier="batch")])
        assert tier_row(summary, "prod") is None
        assert tier_row(summary, "batch")["n_jobs"] == 1

    def test_all_rejected_tier_returns_none(self):
        summary = summarize(
            [record(0, tier="prod", outcome="rejected", finish=0.0)]
        )
        row = tier_row(summary, "prod")
        assert row["n_jobs"] == 1 and row["n_rejected"] == 1
        assert row["n_completed"] == 0
        assert row["p95_jct"] is None
        assert row["mean_jct"] == 0.0
        # The headline keeps its historical 0.0 for an empty p95.
        assert summary.p95_jct == 0.0

    def test_no_deadline_jobs_is_a_zero_count(self):
        summary = summarize([record(0, tier="batch")])
        assert summary.n_deadline_jobs == 0
        assert summary.slo_attainment is None
        row = tier_row(summary, "batch")
        assert row["n_deadline_jobs"] == 0
        assert row["slo_attainment"] is None

    def test_populated_group_still_measures(self):
        summary = summarize(
            [
                record(0, tier="prod", deadline=30.0),
                record(1, tier="prod", deadline=5.0),
            ]
        )
        row = tier_row(summary, "prod")
        assert row["n_deadline_jobs"] == 2
        assert row["slo_attainment"] == pytest.approx(0.5)
        assert row["p95_jct"] == 10.0
        assert summary.slo_attainment == pytest.approx(0.5)
        assert summary.p95_jct == 10.0

    def test_tier_rows_only_when_tiers_present(self):
        plain = summarize([record(0)])
        assert plain.tiers is None
        assert "tiers" not in plain.to_dict()
        tiered = summarize([record(0, tier="dev")])
        assert tiered.tiers is not None
        assert [row["tier"] for row in tiered.tiers] == ["dev"]


class TestMergeErrors:
    def test_empty_merge_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_fleet_summaries([])

    def test_inconsistent_shards_rejected(self):
        left = summarize([record(0)])
        right = summarize_fleet(
            "rush", "fifo", "sync-switch", 1, 0.008, 16, [record(1)], 0.0
        )
        with pytest.raises(ConfigurationError):
            merge_fleet_summaries([left, right])

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_fleet_summaries(
                [summarize([record(0)]), summarize([record(0)])]
            )

    def test_tuned_shards_rejected(self):
        tuned = summarize(
            [record(0)], tuning=({"searches": 1, "fractions": [0.5, 0.5]},)
        )
        with pytest.raises(ConfigurationError):
            merge_fleet_summaries([tuned, summarize([record(1)])])

    def test_merge_recombines_pool_and_records(self):
        left = summarize([record(0, tier="prod")], busy=40.0)
        right = summarize(
            [record(1, tier="batch", finish=21.0)], busy=80.0
        )
        merged = merge_fleet_summaries(
            [left, right], scenario="rush", pool_size=40
        )
        assert merged.n_jobs == 2
        assert merged.pool_size == 40
        assert merged.scenario == "rush"
        assert {row["tier"] for row in merged.tiers} == {"prod", "batch"}

    def test_scenario_defaults_to_stripped_shard_name(self):
        shard = summarize([record(0)], scenario="trace/shard-3")
        merged = merge_fleet_summaries([shard])
        assert merged.scenario == "trace"
