"""Tests for heterogeneous worker tiers and the fleet invariant checker."""

from types import SimpleNamespace

import pytest

from repro.distsim.cluster import WorkerTier, default_worker_tiers
from repro.distsim.stragglers import PERMANENT_DURATION, tier_slowdown
from repro.errors import ConfigurationError, FleetError
from repro.fleet import FleetConfig, FleetSimulator, JobRequest, WorkerPool
from repro.fleet.invariants import check_invariants


FAST = WorkerTier(name="fast", count=4)
SLOW = WorkerTier(
    name="slow", count=4, speed_factor=1.35, bandwidth_factor=1.6
)


class TestWorkerTier:
    def test_defaults_are_neutral(self):
        tier = WorkerTier(name="t", count=2)
        assert tier.speed_factor == 1.0
        assert tier.bandwidth_factor == 1.0
        assert tier.extra_latency == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkerTier(name="", count=2)
        with pytest.raises(ConfigurationError):
            WorkerTier(name="t", count=0)
        with pytest.raises(ConfigurationError):
            WorkerTier(name="t", count=2, speed_factor=0.0)
        with pytest.raises(ConfigurationError):
            WorkerTier(name="t", count=2, bandwidth_factor=-1.0)
        with pytest.raises(ConfigurationError):
            WorkerTier(name="t", count=2, extra_latency=-0.1)

    def test_round_trip(self):
        assert WorkerTier.from_dict(SLOW.to_dict()) == SLOW

    def test_default_split_covers_the_pool(self):
        tiers = default_worker_tiers(10)
        assert sum(tier.count for tier in tiers) == 10
        assert tiers[0].name == "fast" and tiers[0].speed_factor == 1.0
        assert tiers[1].speed_factor > 1.0

    def test_tier_slowdown_is_permanent(self):
        event = tier_slowdown(3, 1.35, 0.002)
        assert event.worker == 3
        assert event.start == 0.0
        assert event.duration == PERMANENT_DURATION
        assert event.slow_factor == 1.35
        assert event.extra_latency == 0.002


class TestWorkerPool:
    def test_tiers_assign_id_ranges_in_declaration_order(self):
        pool = WorkerPool(8, tiers=(FAST, SLOW))
        assert [pool.tier_of(w).name for w in range(8)] == (
            ["fast"] * 4 + ["slow"] * 4
        )
        assert pool.speed_factor(0) == 1.0
        assert pool.speed_factor(7) == 1.35
        assert pool.bandwidth_factor(7) == 1.6

    def test_uniform_pool_is_neutral(self):
        pool = WorkerPool(8)
        assert pool.tier_of(3) is None
        assert pool.speed_factor(3) == 1.0
        assert pool.placement_slowdown(8) == 1.0

    def test_tier_counts_must_sum_to_pool(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(9, tiers=(FAST, SLOW))
        with pytest.raises(ConfigurationError):
            WorkerPool(8, tiers=(FAST, FAST))  # duplicate names

    def test_placement_slowdown_tracks_free_frontier(self):
        pool = WorkerPool(8, tiers=(FAST, SLOW))
        assert pool.placement_slowdown(4) == 1.0  # all-fast placement
        assert pool.placement_slowdown(5) == 1.35  # spills into slow
        taken = pool.allocate(4)  # the fast ids
        assert taken == (0, 1, 2, 3)
        assert pool.placement_slowdown(2) == 1.35  # only slow ids left
        pool.release(taken)
        assert pool.placement_slowdown(2) == 1.0

    def test_placement_slowdown_infeasible_falls_back(self):
        pool = WorkerPool(8, tiers=(FAST, SLOW))
        pool.allocate(6)
        # 4 demanded, 2 free: estimate from the best-case pool prefix.
        assert pool.placement_slowdown(4) == 1.0


class TestInvariantChecker:
    def test_clean_run_passes(self):
        summary = FleetSimulator(FleetConfig(scenario="rush", n_jobs=2)).run()
        assert summary.n_jobs == 2

    def test_corrupted_pool_is_caught(self):
        simulator = FleetSimulator(FleetConfig(scenario="rush", n_jobs=2))
        simulator.pool.allocate(3)  # workers busy that no job owns
        with pytest.raises(FleetError):
            simulator.run()

    def test_backwards_clock_is_caught(self):
        simulator = FleetSimulator(FleetConfig(scenario="rush", n_jobs=2))
        simulator._last_time = 1e12
        with pytest.raises(FleetError):
            simulator.run()

    @staticmethod
    def _held(pool, **demands):
        """Running jobs ``j<id>=demand``, each holding its full demand."""
        return {
            int(name[1:]): SimpleNamespace(
                workers=pool.allocate(demand), demand=demand
            )
            for name, demand in demands.items()
        }

    def test_consistent_state_passes(self):
        pool = WorkerPool(8, tiers=(FAST, SLOW))
        running = self._held(pool, j11=4, j12=2)
        queue = [JobRequest(job_id=13, arrival=0.0, n_workers=4)]
        check_invariants(pool, queue, running, 2, last_time=7.5, now=7.5)

    @pytest.mark.parametrize(
        "violation, message, jobs",
        [
            ("clock", "clock moved backwards", ()),
            ("double-allocation", "two running jobs at once", (11, 12)),
            ("partition", "pool partition violated", ()),
            ("tier", "tier 'fast' over-allocated", (11,)),
            ("queued-and-running", "both queued and running", (12,)),
            ("above-demand", "above its demand", (12,)),
            ("below-floor", "below the preemption floor", (11,)),
        ],
    )
    def test_each_violation_names_time_and_job(self, violation, message, jobs):
        pool = WorkerPool(8, tiers=(FAST, SLOW))
        running = self._held(pool, j11=4, j12=2)
        queue, last_time = [], 7.5
        if violation == "clock":
            last_time = 8.0
        elif violation == "double-allocation":
            pool.release(running[12].workers)
            running[12].workers = running[11].workers[:2]
        elif violation == "partition":
            pool.allocate(1)  # a worker busy that no job owns
        elif violation == "tier":
            pool.tiers = (
                WorkerTier(name="fast", count=3),
                WorkerTier(name="slow", count=5),
            )
        elif violation == "queued-and-running":
            queue = [JobRequest(job_id=12, arrival=0.0, n_workers=2)]
        elif violation == "above-demand":
            running[12].demand = 1
        elif violation == "below-floor":
            pool.release(running[11].workers[1:])
            running[11].workers = running[11].workers[:1]
        with pytest.raises(FleetError) as caught:
            check_invariants(pool, queue, running, 2, last_time, now=7.5)
        text = str(caught.value)
        assert message in text
        assert text.startswith("t=7.5: ")
        for job_id in jobs:
            assert str(job_id) in text.removeprefix("t=7.5: ")
