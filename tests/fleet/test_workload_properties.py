"""Property-based tests for the datacenter trace generator.

Each property carries ``@example`` regression inputs — cases that
exercise known edge branches (the ``alpha == 1`` Pareto form, single
jobs, degenerate bounds) — so they replay on every run regardless of
where hypothesis explores.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.setups import SETUPS
from repro.fleet.workload import (
    DEFAULT_TENANT_TIERS,
    SYNC_POLICIES,
    TRACE_SCENARIOS,
    JobRequest,
    TenantTier,
    TraceScenario,
    assign_shards,
    bounded_pareto,
    trace_stream,
)

SCENARIO = TRACE_SCENARIOS["trace"]

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestTraceStream:
    @given(seed=seeds, n_jobs=st.integers(min_value=1, max_value=48))
    @example(seed=0, n_jobs=48)
    @example(seed=1337, n_jobs=1)
    @settings(max_examples=25, deadline=None)
    def test_arrivals_non_decreasing_ids_sequential(self, seed, n_jobs):
        stream = trace_stream(SCENARIO, 0.01, seed, n_jobs=n_jobs)
        assert len(stream) == n_jobs
        arrivals = [request.arrival for request in stream]
        assert arrivals[0] >= 0.0
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))
        assert [request.job_id for request in stream] == list(range(n_jobs))

    @given(seed=seeds, n_jobs=st.integers(min_value=1, max_value=48))
    @example(seed=0, n_jobs=48)
    @settings(max_examples=25, deadline=None)
    def test_sizes_within_pareto_bounds_tiers_labelled(self, seed, n_jobs):
        stream = trace_stream(SCENARIO, 0.01, seed, n_jobs=n_jobs)
        names = {tier.name for tier in SCENARIO.tiers}
        for request in stream:
            assert SCENARIO.size_min <= request.steps_scale
            assert request.steps_scale <= SCENARIO.size_max
            assert request.tier in names

    @given(seed=seeds)
    @example(seed=0)
    @settings(max_examples=10, deadline=None)
    def test_stream_is_deterministic(self, seed):
        first = trace_stream(SCENARIO, 0.01, seed, n_jobs=12)
        second = trace_stream(SCENARIO, 0.01, seed, n_jobs=12)
        assert first == second


class TestBoundedPareto:
    @given(
        u=st.floats(min_value=0.0, max_value=1.0),
        alpha=st.floats(min_value=0.1, max_value=4.0),
        lo=st.floats(min_value=0.01, max_value=10.0),
        span=st.floats(min_value=0.0, max_value=100.0),
    )
    @example(u=0.5, alpha=1.0, lo=0.05, span=2.95)  # the alpha==1 form
    @example(u=1.0, alpha=1.6, lo=0.05, span=2.95)  # exact upper bound
    @example(u=0.0, alpha=1.6, lo=0.05, span=2.95)  # exact lower bound
    @example(u=0.7, alpha=1.6, lo=1.0, span=0.0)  # degenerate lo==hi
    @example(u=0.0, alpha=1.0, lo=3.84375, span=1.0)  # 1/(1/lo) != lo
    @settings(max_examples=100, deadline=None)
    def test_samples_stay_within_bounds(self, u, alpha, lo, span):
        hi = lo + span
        value = bounded_pareto(u, alpha, lo, hi)
        assert lo <= value <= hi * (1.0 + 1e-12)
        assert bounded_pareto(0.0, alpha, lo, hi) == pytest.approx(lo)
        assert bounded_pareto(1.0, alpha, lo, hi) == pytest.approx(hi)

    @given(
        alpha=st.floats(min_value=0.1, max_value=4.0),
        lo=st.floats(min_value=0.01, max_value=10.0),
        span=st.floats(min_value=0.001, max_value=100.0),
    )
    @example(alpha=1.0, lo=0.05, span=2.95)
    @settings(max_examples=50, deadline=None)
    def test_inverse_cdf_is_monotone(self, alpha, lo, span):
        hi = lo + span
        grid = [i / 16 for i in range(17)]
        values = [bounded_pareto(u, alpha, lo, hi) for u in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rejects_u_outside_unit_interval(self):
        with pytest.raises(ConfigurationError):
            bounded_pareto(-0.1, 1.6, 0.05, 3.0)
        with pytest.raises(ConfigurationError):
            bounded_pareto(1.1, 1.6, 0.05, 3.0)


class TestTenantTiers:
    def test_default_fractions_sum_to_one(self):
        total = sum(tier.fraction for tier in DEFAULT_TENANT_TIERS)
        assert total == pytest.approx(1.0)

    @given(
        weights=st.lists(
            st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=5
        )
    )
    @example(weights=[0.3, 0.3, 0.4])
    @example(weights=[1.0])
    @settings(max_examples=25, deadline=None)
    def test_normalized_mix_accepted_unnormalized_rejected(self, weights):
        total = sum(weights)
        fractions = [weight / total for weight in weights]
        fractions[-1] = 1.0 - sum(fractions[:-1])
        tiers = tuple(
            TenantTier(name=f"t{index}", fraction=fraction)
            for index, fraction in enumerate(fractions)
        )
        scenario = TraceScenario(
            name="x", description="d", tiers=tiers, shards=1
        )
        assert sum(tier.fraction for tier in scenario.tiers) == pytest.approx(
            1.0
        )
        if len(tiers) > 1:  # halving every share breaks the sum, not (0, 1]
            halved = tuple(
                TenantTier(name=tier.name, fraction=tier.fraction / 2)
                for tier in tiers
            )
            with pytest.raises(ConfigurationError):
                TraceScenario(name="x", description="d", tiers=halved, shards=1)


class TestJobRequestRoundTrip:
    @given(
        job_id=st.integers(min_value=0, max_value=10**6),
        arrival=st.floats(min_value=0.0, max_value=1e9),
        setup_index=st.sampled_from(sorted(SETUPS)),
        n_workers=st.integers(min_value=1, max_value=64),
        sync_policy=st.sampled_from(sorted(SYNC_POLICIES)),
        deadline=st.none() | st.floats(min_value=1e-3, max_value=1e9),
        tier=st.none() | st.sampled_from(["prod", "batch", "dev"]),
        steps_scale=st.floats(min_value=1e-3, max_value=100.0),
    )
    @example(
        job_id=0,
        arrival=0.0,
        setup_index=1,
        n_workers=8,
        sync_policy="sync-switch",
        deadline=None,
        tier=None,
        steps_scale=1.0,
    )
    @example(
        job_id=9999,
        arrival=1234.5678901234567,
        setup_index=3,
        n_workers=16,
        sync_policy="asp",
        deadline=77.25,
        tier="prod",
        steps_scale=0.05,
    )
    @settings(max_examples=50, deadline=None)
    def test_json_round_trip_is_exact(
        self,
        job_id,
        arrival,
        setup_index,
        n_workers,
        sync_policy,
        deadline,
        tier,
        steps_scale,
    ):
        request = JobRequest(
            job_id=job_id,
            arrival=arrival,
            setup_index=setup_index,
            n_workers=n_workers,
            sync_policy=sync_policy,
            deadline=deadline,
            tier=tier,
            steps_scale=steps_scale,
        )
        decoded = JobRequest.from_dict(
            json.loads(json.dumps(request.to_dict()))
        )
        assert decoded == request


class TestAssignShards:
    @given(
        seed=seeds,
        n_shards=st.integers(min_value=1, max_value=8),
        n_jobs=st.integers(min_value=1, max_value=40),
    )
    @example(seed=0, n_shards=4, n_jobs=24)
    @example(seed=0, n_shards=1, n_jobs=5)
    @settings(max_examples=25, deadline=None)
    def test_sharding_partitions_the_stream(self, seed, n_shards, n_jobs):
        stream = trace_stream(SCENARIO, 0.01, seed, n_jobs=n_jobs)
        shards = assign_shards(stream, n_shards, seed)
        assert len(shards) == n_shards
        merged = sorted(
            (request for shard in shards for request in shard),
            key=lambda request: request.job_id,
        )
        assert merged == list(stream)
        for shard in shards:
            arrivals = [request.arrival for request in shard]
            assert arrivals == sorted(arrivals)

    @given(seed=seeds, n_jobs=st.integers(min_value=1, max_value=40))
    @example(seed=0, n_jobs=24)
    @settings(max_examples=10, deadline=None)
    def test_shard_of_a_job_ignores_stream_length(self, seed, n_jobs):
        # The job -> shard map derives from per-job child seeds, so a
        # longer stream never reshuffles the prefix's assignment.
        short = trace_stream(SCENARIO, 0.01, seed, n_jobs=n_jobs)
        longer = trace_stream(SCENARIO, 0.01, seed, n_jobs=n_jobs + 8)

        def shard_map(stream):
            assignment = {}
            for index, shard in enumerate(assign_shards(stream, 4, seed)):
                for request in shard:
                    assignment[request.job_id] = index
            return assignment

        short_map = shard_map(short)
        longer_map = shard_map(longer)
        assert all(
            longer_map[job_id] == shard for job_id, shard in short_map.items()
        )
