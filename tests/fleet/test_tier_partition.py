"""Oracle: the tenant-tier rows partition the fleet headline.

Every trace job carries a tenant tier, and the headline and each tier
row are one fold over job records, so over ``trace``-scenario streams
(one unsharded :func:`simulate_fleet` and one sharded
:func:`run_trace_scale` merge per seed):

* the tier rows' job, rejection and deadline-job counts sum to the
  headline's;
* the largest tier makespan is the headline makespan;
* a stream whose jobs all share one tier has a row equal to the
  headline on every field the two share.

Only counts and exact float equalities of the same fold are compared,
no hash, so this holds on any BLAS build.
"""

from __future__ import annotations

import functools

import pytest

from repro.experiments.fleet import run_trace_scale
from repro.fleet import FleetConfig, FleetSummary, simulate_fleet, summarize_fleet

SEEDS = (0, 1, 2, 3)
SCALE = 0.001
N_JOBS = 12
# Small enough that the slo scheduler rejects jobs on some seeds.
POOL_SIZE = 16
SHARDS = 2

#: Tier-row fields that are also :class:`FleetSummary` fields.
SHARED = (
    "n_jobs",
    "n_rejected",
    "mean_jct",
    "p95_jct",
    "max_jct",
    "makespan",
    "n_deadline_jobs",
    "slo_attainment",
)
COUNTS = ("n_jobs", "n_rejected", "n_deadline_jobs")


@functools.cache
def stream(seed: int, run: str) -> FleetSummary:
    """One ``trace`` summary: the unsharded stream or a sharded merge."""
    if run == "unsharded":
        return simulate_fleet(
            FleetConfig(
                scenario="trace",
                scheduler="slo",
                seed=seed,
                n_jobs=N_JOBS,
                scale=SCALE,
                pool_size=POOL_SIZE,
            )
        )
    summary, _ = run_trace_scale(
        seed=seed,
        scale=SCALE,
        n_jobs=N_JOBS,
        shards=SHARDS,
        pool_size=POOL_SIZE,
        jobs=1,
        cache_dir="off",
    )
    return summary


@pytest.fixture(params=SEEDS, ids=lambda seed: f"seed{seed}")
def summaries(request):
    return {run: stream(request.param, run) for run in ("unsharded", "merged")}


def test_the_streams_reject_and_carry_deadlines():
    """The count sums below are not vacuous: some jobs are rejected and
    some carry deadlines, in more than one tier."""
    summaries = [
        stream(seed, run) for seed in SEEDS for run in ("unsharded", "merged")
    ]
    assert sum(summary.n_rejected for summary in summaries) > 0
    assert sum(summary.n_deadline_jobs for summary in summaries) > 0
    assert all(len(summary.tiers) > 1 for summary in summaries)


@pytest.mark.parametrize("run", ["unsharded", "merged"])
class TestTierPartition:
    def test_tier_counts_sum_to_the_headline(self, summaries, run):
        summary = summaries[run]
        assert summary.tiers, "every trace job carries a tenant tier"
        for field in COUNTS:
            total = sum(row[field] for row in summary.tiers)
            assert total == getattr(summary, field), field
        for row in summary.tiers:
            assert row["n_completed"] == row["n_jobs"] - row["n_rejected"]

    def test_largest_tier_makespan_is_the_headline(self, summaries, run):
        summary = summaries[run]
        assert max(row["makespan"] for row in summary.tiers) == summary.makespan

    def test_single_tier_stream_row_is_the_headline(self, summaries, run):
        summary = summaries[run]
        for row in summary.tiers:
            members = [job for job in summary.jobs if job.tier == row["tier"]]
            alone = summarize_fleet(
                summary.scenario,
                summary.scheduler,
                summary.sync_policy,
                summary.seed,
                summary.scale,
                summary.pool_size,
                members,
                0.0,
            )
            (only,) = alone.tiers
            assert only == row
            for field in SHARED:
                expected = getattr(alone, field)
                if field == "p95_jct" and only["n_completed"] == 0:
                    # The headline keeps 0.0 where an empty row has None.
                    assert (only[field], expected) == (None, 0.0)
                else:
                    assert only[field] == expected, field
