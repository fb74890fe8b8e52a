"""Tests for the discrete-event fleet simulator.

Includes the PR acceptance checks: Sync-Switch beats all-BSP on mean
JCT in a contention scenario, and fleet runs are reproducible (same
seed -> identical summary) for single- and multi-job streams.
"""

import pytest

from repro.distsim.stragglers import StragglerEvent, StragglerSchedule
from repro.errors import ConfigurationError, FleetError
from repro.fleet import (
    FleetConfig,
    FleetSimulator,
    JobRequest,
    WorkerPool,
    simulate_fleet,
)
from repro.fleet.pool import job_stragglers

SCALE = 0.008


def config(**overrides) -> FleetConfig:
    base = {
        "scenario": "rush",
        "scheduler": "fifo",
        "sync_policy": "sync-switch",
        "seed": 0,
        "scale": SCALE,
        "n_jobs": 4,
    }
    base.update(overrides)
    return FleetConfig(**base)


@pytest.fixture(scope="module")
def rush_sync():
    return simulate_fleet(config())


@pytest.fixture(scope="module")
def rush_bsp():
    return simulate_fleet(config(sync_policy="bsp"))


class TestWorkerPool:
    def test_allocates_lowest_ids(self):
        pool = WorkerPool(6)
        assert pool.allocate(3) == (0, 1, 2)
        assert pool.free_count == 3
        assert pool.busy_count == 3

    def test_release_and_reallocate(self):
        pool = WorkerPool(4)
        taken = pool.allocate(4)
        pool.release(taken[:2])
        assert pool.allocate(2) == (0, 1)

    def test_over_allocation_rejected(self):
        pool = WorkerPool(2)
        with pytest.raises(FleetError):
            pool.allocate(3)

    def test_double_release_rejected(self):
        pool = WorkerPool(2)
        taken = pool.allocate(1)
        pool.release(taken)
        with pytest.raises(FleetError):
            pool.release(taken)

    def test_bad_size_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(0)


class TestFleetRun:
    def test_all_jobs_complete(self, rush_sync):
        assert rush_sync.n_jobs == 4
        assert sorted(record.job_id for record in rush_sync.jobs) == [0, 1, 2, 3]

    def test_records_are_causally_ordered(self, rush_sync):
        for record in rush_sync.jobs:
            assert record.start >= record.arrival
            assert record.finish > record.start
            assert record.jct == pytest.approx(
                record.queue_delay + record.service_time
            )

    def test_aggregates_consistent(self, rush_sync):
        jcts = [record.jct for record in rush_sync.jobs]
        assert rush_sync.mean_jct == pytest.approx(sum(jcts) / len(jcts))
        assert rush_sync.max_jct == pytest.approx(max(jcts))
        assert rush_sync.makespan == pytest.approx(
            max(record.finish for record in rush_sync.jobs)
        )
        assert 0.0 < rush_sync.utilization <= 1.0
        assert rush_sync.images_per_second > 0.0

    def test_sync_switch_beats_bsp_mean_jct(self, rush_sync, rush_bsp):
        """Acceptance: Sync-Switch wins fleet JCT under contention."""
        assert rush_sync.mean_jct < rush_bsp.mean_jct
        assert rush_sync.mean_queue_delay < rush_bsp.mean_queue_delay

    def test_reproducible_multi_job(self, rush_sync):
        again = simulate_fleet(config())
        assert again.to_dict() == rush_sync.to_dict()

    def test_reproducible_single_job(self):
        first = simulate_fleet(config(n_jobs=1))
        second = simulate_fleet(config(n_jobs=1))
        assert first.n_jobs == 1
        assert first.to_dict() == second.to_dict()

    def test_seed_changes_outcome(self, rush_sync):
        other = simulate_fleet(config(seed=1))
        assert other.to_dict() != rush_sync.to_dict()

    def test_summary_roundtrip(self, rush_sync):
        from repro.fleet import FleetSummary

        assert (
            FleetSummary.from_dict(rush_sync.to_dict()).to_dict()
            == rush_sync.to_dict()
        )


class TestPreemption:
    @pytest.fixture(scope="class")
    def preemption_trace(self):
        # Two 8-worker ASP jobs hold 16 of 24 workers; a 16-worker job
        # arrives while both are in their (preemptible) ASP phase.
        return (
            JobRequest(job_id=0, arrival=0.0, setup_index=1, n_workers=8,
                       sync_policy="asp"),
            JobRequest(job_id=1, arrival=0.0, setup_index=1, n_workers=8,
                       sync_policy="asp"),
            JobRequest(job_id=2, arrival=2.0, setup_index=3, n_workers=16,
                       sync_policy="sync-switch"),
        )

    def test_best_fit_preempts_asp_jobs(self, preemption_trace):
        summary = simulate_fleet(
            config(
                scheduler="best-fit",
                trace=preemption_trace,
                pool_size=24,
                n_jobs=None,
            )
        )
        assert summary.preemptions > 0
        assert summary.n_jobs == 3
        big = next(r for r in summary.jobs if r.job_id == 2)
        assert big.queue_delay == pytest.approx(0.0)  # admitted on arrival

    def test_fifo_never_preempts(self, preemption_trace):
        summary = simulate_fleet(
            config(
                scheduler="fifo",
                trace=preemption_trace,
                pool_size=24,
                n_jobs=None,
            )
        )
        assert summary.preemptions == 0
        big = next(r for r in summary.jobs if r.job_id == 2)
        assert big.queue_delay > 0.0  # had to wait for a full slot


class TestPreemptionFloorAudit:
    """Satellite regressions: floor round-trips and per-pass counting."""

    @pytest.fixture(scope="class")
    def floor_round_trip(self):
        # One 8-worker ASP job holds the pool's elastic capacity; a
        # 14-worker job forces a shrink to exactly the preemption
        # floor (8 - 6 = 2) and its completion hands the workers back.
        trace = (
            JobRequest(job_id=0, arrival=0.0, setup_index=1, n_workers=8,
                       sync_policy="asp"),
            JobRequest(job_id=1, arrival=1.0, setup_index=3, n_workers=14,
                       sync_policy="sync-switch"),
        )
        return simulate_fleet(
            config(
                scheduler="best-fit", trace=trace, pool_size=16, n_jobs=None
            )
        )

    def test_shrink_to_floor_then_restore_returns_full_allocation(
        self, floor_round_trip
    ):
        victim = next(
            record for record in floor_round_trip.jobs if record.job_id == 0
        )
        assert victim.preemptions >= 1
        workers = [row["workers"] for row in victim.allocations]
        assert min(workers) == 2, "victim must shrink to exactly the floor"
        assert workers[-1] == victim.demand, (
            "restores must return the victim to its original allocation"
        )
        assert victim.restores >= 1

    def test_repeated_shrinks_in_one_pass_count_one_preemption(self):
        # Queue [12w, 11w] drains in a single scheduling pass when the
        # 6-worker filler completes: the 20-worker victim is shrunk
        # twice within that pass (once per admitted job) and must
        # count a single preemption — not one per shrink.
        trace = (
            JobRequest(job_id=0, arrival=0.0, setup_index=2, n_workers=20,
                       sync_policy="sync-switch"),
            JobRequest(job_id=1, arrival=0.0, setup_index=1, n_workers=6,
                       sync_policy="asp"),
            JobRequest(job_id=2, arrival=1.0, setup_index=1, n_workers=12,
                       sync_policy="asp"),
            JobRequest(job_id=3, arrival=2.0, setup_index=1, n_workers=11,
                       sync_policy="asp"),
        )
        summary = simulate_fleet(
            config(
                scheduler="best-fit", trace=trace, pool_size=30, n_jobs=None
            )
        )
        victim = next(
            record for record in summary.jobs if record.job_id == 0
        )
        shrinks = [
            row for row in victim.allocations if row["cause"] == "preempt"
        ]
        passes = {row["time"] for row in shrinks}
        assert len(shrinks) > len(passes), (
            "fixture must shrink the victim twice within one pass"
        )
        assert victim.preemptions == len(passes), (
            "preemptions must count scheduling passes, not individual "
            "shrinks within a pass"
        )


class TestValidation:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(scenario="nope")

    def test_trace_demand_exceeding_pool_rejected(self):
        trace = (JobRequest(job_id=0, arrival=0.0, n_workers=8),)
        with pytest.raises(ConfigurationError):
            FleetSimulator(config(trace=trace, pool_size=4, n_jobs=None))

    def test_duplicate_job_ids_rejected(self):
        trace = (
            JobRequest(job_id=0, arrival=0.0, n_workers=4),
            JobRequest(job_id=0, arrival=1.0, n_workers=4),
        )
        with pytest.raises(ConfigurationError):
            FleetSimulator(config(trace=trace, pool_size=8, n_jobs=None))

    def test_n_jobs_with_trace_rejected(self):
        trace = (JobRequest(job_id=0, arrival=0.0, n_workers=4),)
        with pytest.raises(ConfigurationError):
            config(trace=trace, n_jobs=2)

    def test_small_pool_trace_accepted(self):
        # The pool constraint is the trace's own demands, not the
        # default scenario workloads.
        trace = (JobRequest(job_id=0, arrival=0.0, n_workers=4,
                            sync_policy="asp"),)
        summary = simulate_fleet(
            config(trace=trace, pool_size=6, n_jobs=None)
        )
        assert summary.n_jobs == 1


class TestSharedContention:
    def test_job_slice_remaps_and_shifts(self):
        contention = StragglerSchedule(
            [
                StragglerEvent(worker=5, start=10.0, duration=10.0,
                               slow_factor=2.0),
                StragglerEvent(worker=7, start=0.0, duration=4.0,
                               slow_factor=3.0),
            ]
        )
        sliced = job_stragglers(contention, (5, 7), now=12.0)
        # Worker 5's burst is mid-flight: 8 seconds remain at local t=0.
        assert sliced.state_at(0, 0.0) == (2.0, 0.0)
        assert sliced.state_at(0, 7.9) == (2.0, 0.0)
        assert sliced.state_at(0, 8.1) == (1.0, 0.0)
        # Worker 7's burst already ended before admission.
        assert sliced is not None and sliced.state_at(1, 0.0) == (1.0, 0.0)
