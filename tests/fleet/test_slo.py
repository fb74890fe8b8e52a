"""Tests for deadline workloads and the SLO-aware scheduler.

Covers the satellite acceptance cases: traces whose deadline is
earlier than the arrival time (dead on arrival — rejected by the SLO
scheduler, merely missed under any other), and SLO admission on an
un-tuned class (no crash; conservative all-BSP fallback).
"""

import pytest

from repro.errors import ConfigurationError
from repro.fleet import (
    FLEET_SCENARIOS,
    FleetConfig,
    JobClass,
    JobRequest,
    PolicyStore,
    SchedulerContext,
    SloAwareScheduler,
    estimate_service_time,
    poisson_stream,
    simulate_fleet,
)
from repro.fleet.policy_store import ClassPolicy

SCALE = 0.008


def deadline_job(job_id, arrival=0.0, deadline=None, **kwargs):
    return JobRequest(
        job_id=job_id, arrival=arrival, deadline=deadline, **kwargs
    )


def tuned_store(policy_time=30.0) -> PolicyStore:
    store = PolicyStore()
    cls = JobClass(1, 8)
    store.begin_search(cls)
    store.install(
        ClassPolicy(
            job_class=cls,
            percent=6.25,
            target_accuracy=0.9,
            bsp_time=120.0,
            policy_time=policy_time,
            search_cost=300.0,
            n_trials=6,
            tuned_at=0.0,
            fractions=(0.0625, 0.9375),
        )
    )
    return store


class TestDeadlineValidation:
    def test_deadline_before_arrival_is_legal(self):
        # An SLO can already be blown at submission time; the request
        # itself stays valid and scheduling policy decides its fate.
        request = deadline_job(0, arrival=50.0, deadline=10.0)
        assert request.deadline == 10.0

    def test_non_positive_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            deadline_job(0, deadline=0.0)
        with pytest.raises(ConfigurationError):
            deadline_job(0, deadline=-5.0)

    def test_deadline_scenario_generates_deadlines(self):
        stream = poisson_stream(FLEET_SCENARIOS["deadline"], SCALE, seed=0)
        assert all(request.deadline is not None for request in stream)
        factor = FLEET_SCENARIOS["deadline"].deadline_factor
        first = stream[0]
        assert first.deadline == pytest.approx(
            factor * estimate_service_time(first.setup_index, 6.25, SCALE)
        )

    def test_other_scenarios_have_no_deadlines(self):
        stream = poisson_stream(FLEET_SCENARIOS["rush"], SCALE, seed=0)
        assert all(request.deadline is None for request in stream)


class TestSloTriage:
    def test_dead_on_arrival_rejected(self):
        scheduler = SloAwareScheduler()
        request = deadline_job(0, arrival=50.0, deadline=10.0)
        context = SchedulerContext(now=50.0, scale=SCALE, store=PolicyStore())
        rejected, degraded = scheduler.triage([request], 16, SCALE, context)
        assert rejected == [request]
        assert degraded == set()

    def test_untuned_feasible_job_degraded_to_bsp(self):
        scheduler = SloAwareScheduler()
        request = deadline_job(0, deadline=10_000.0)
        context = SchedulerContext(now=0.0, scale=SCALE, store=PolicyStore())
        rejected, degraded = scheduler.triage([request], 16, SCALE, context)
        assert rejected == []
        # Un-tuned class: the conservative all-BSP estimate is the only
        # validated prediction, so the job trains at 100% BSP.
        assert degraded == {0}

    def test_untuned_infeasible_job_rejected(self):
        scheduler = SloAwareScheduler()
        conservative = estimate_service_time(1, 100.0, SCALE)
        request = deadline_job(0, deadline=conservative * 0.5)
        context = SchedulerContext(now=0.0, scale=SCALE, store=PolicyStore())
        rejected, degraded = scheduler.triage([request], 16, SCALE, context)
        assert rejected == [request]

    def test_tuned_class_admitted_untouched(self):
        scheduler = SloAwareScheduler()
        store = tuned_store(policy_time=30.0)
        # Too tight for all-BSP (est ~119 s) but fine for the tuned 30 s.
        request = deadline_job(0, deadline=60.0)
        context = SchedulerContext(now=0.0, scale=SCALE, store=store)
        rejected, degraded = scheduler.triage([request], 16, SCALE, context)
        assert rejected == []
        assert degraded == set()

    def test_missing_store_falls_back_without_crash(self):
        scheduler = SloAwareScheduler()
        request = deadline_job(0, deadline=10_000.0)
        rejected, degraded = scheduler.triage([request], 16, SCALE, None)
        assert rejected == []
        assert degraded == {0}

    def test_pinned_schedule_and_percent_never_degraded(self):
        # A job that pins its own schedule or percentage does not follow
        # the policy store, so there is nothing to fall back from.
        scheduler = SloAwareScheduler()
        pinned = deadline_job(
            0, deadline=10_000.0, protocols=("bsp", "ssp", "asp"),
            fractions=(0.2, 0.3, 0.5),
        )
        override = deadline_job(1, deadline=10_000.0, percent_override=20.0)
        context = SchedulerContext(now=0.0, scale=SCALE, store=PolicyStore())
        rejected, degraded = scheduler.triage(
            [pinned, override], 16, SCALE, context
        )
        assert rejected == []
        assert degraded == set()

    def test_deadline_free_and_trial_jobs_ignored(self):
        scheduler = SloAwareScheduler()
        plain = JobRequest(job_id=0, arrival=0.0)
        trial = JobRequest(
            job_id=1, arrival=0.0, kind="search-trial",
            percent_override=50.0, deadline=1.0,
        )
        context = SchedulerContext(now=5.0, scale=SCALE, store=PolicyStore())
        rejected, degraded = scheduler.triage(
            [plain, trial], 16, SCALE, context
        )
        assert rejected == []
        assert degraded == set()


class TestTriageBoundary:
    """Satellite: the ``deadline == now`` feasibility boundary, pinned."""

    def test_deadline_equal_to_arrival_rejected_when_service_positive(self):
        # deadline == arrival means zero slack: any positive predicted
        # service makes the job infeasible at its own arrival instant.
        scheduler = SloAwareScheduler()
        request = deadline_job(0, arrival=25.0, deadline=25.0)
        context = SchedulerContext(now=25.0, scale=SCALE, store=PolicyStore())
        rejected, _ = scheduler.triage([request], 16, SCALE, context)
        assert rejected == [request]

    def test_deadline_exactly_at_predicted_finish_admitted(self):
        # finish == deadline counts as met (met_deadline uses <=), so
        # triage must symmetrically admit at equality.
        scheduler = SloAwareScheduler()
        store = tuned_store(policy_time=30.0)
        request = deadline_job(0, arrival=0.0, deadline=40.0)
        context = SchedulerContext(now=10.0, scale=SCALE, store=store)
        rejected, degraded = scheduler.triage([request], 16, SCALE, context)
        assert rejected == []
        assert degraded == set()

    def test_deadline_just_inside_predicted_finish_rejected(self):
        scheduler = SloAwareScheduler()
        store = tuned_store(policy_time=30.0)
        request = deadline_job(0, arrival=0.0, deadline=39.999)
        context = SchedulerContext(now=10.0, scale=SCALE, store=store)
        rejected, _ = scheduler.triage([request], 16, SCALE, context)
        assert rejected == [request]

    def test_finish_exactly_at_deadline_counts_met(self):
        from repro.fleet import JobRecord

        record = JobRecord(
            job_id=0, setup_index=1, sync_policy="sync-switch", percent=6.25,
            demand=8, arrival=0.0, start=0.0, finish=50.0, preemptions=0,
            restores=0, accuracy=0.9, diverged=False, completed_steps=10,
            images=100, deadline=50.0,
        )
        assert record.met_deadline is True

    def test_degraded_jobs_count_once_in_attainment(self):
        """Each deadline job contributes exactly one attainment sample,
        whatever its triage path (degraded, rejected, plain)."""
        summary = simulate_fleet(
            FleetConfig(
                scenario="deadline",
                scheduler="slo",
                sync_policy="sync-switch",
                seed=0,
                scale=SCALE,
                n_jobs=4,
            )
        )
        deadline_records = [
            record
            for record in summary.jobs
            if record.deadline is not None and record.kind == "train"
        ]
        ids = [record.job_id for record in deadline_records]
        assert len(ids) == len(set(ids)), "one record per deadline job"
        assert summary.n_deadline_jobs == len(set(ids))
        met = sum(1 for record in deadline_records if record.met_deadline)
        assert summary.slo_attainment == pytest.approx(
            met / summary.n_deadline_jobs
        )
        # A degraded job is still a single record: degraded counts and
        # attainment samples can never exceed the stream's job count.
        assert summary.n_degraded <= summary.n_jobs
        for record in deadline_records:
            if record.degraded:
                assert record.outcome == "completed"


class TestPredictedJctUpdate:
    """Satellite: realized recurrences update the store's predictions."""

    def test_prediction_moves_to_realized_mean(self):
        store = tuned_store(policy_time=30.0)
        request = deadline_job(0, deadline=10_000.0)
        assert store.predict_service(request, SCALE) == pytest.approx(30.0)
        store.note_recurrence(JobClass(1, 8), 42.0)
        store.note_recurrence(JobClass(1, 8), 48.0)
        assert store.predict_service(request, SCALE) == pytest.approx(45.0)
        assert store.realized_service_mean(JobClass(1, 8)) == pytest.approx(
            45.0
        )

    def test_triage_uses_updated_prediction(self):
        # Realized fleet service (preemption stretches included) is
        # slower than the search's clean measurement: a deadline that
        # the stale prediction would accept must now be rejected.
        scheduler = SloAwareScheduler()
        store = tuned_store(policy_time=30.0)
        store.note_recurrence(JobClass(1, 8), 90.0)
        request = deadline_job(0, deadline=60.0)
        context = SchedulerContext(now=0.0, scale=SCALE, store=store)
        rejected, _ = scheduler.triage([request], 16, SCALE, context)
        assert rejected == [request]


class TestSloAdmission:
    def test_earliest_deadline_first(self):
        scheduler = SloAwareScheduler()
        queue = [
            deadline_job(0, arrival=0.0, deadline=500.0, n_workers=8),
            deadline_job(1, arrival=1.0, deadline=100.0, n_workers=8),
            JobRequest(job_id=2, arrival=0.0, n_workers=8),
        ]
        admitted = scheduler.admit(queue, 16, SCALE)
        assert [request.job_id for request in admitted] == [1, 0]

    def test_no_head_of_line_blocking(self):
        scheduler = SloAwareScheduler()
        queue = [
            deadline_job(0, deadline=100.0, n_workers=16),
            deadline_job(1, deadline=200.0, n_workers=8),
        ]
        admitted = scheduler.admit(queue, 8, SCALE)
        assert [request.job_id for request in admitted] == [1]


class TestSloFleetRuns:
    @pytest.fixture(scope="class")
    def slo_summary(self):
        return simulate_fleet(
            FleetConfig(
                scenario="deadline",
                scheduler="slo",
                sync_policy="sync-switch",
                seed=0,
                scale=SCALE,
                n_jobs=3,
            )
        )

    def test_untuned_stream_does_not_crash_and_reports_slo(self, slo_summary):
        assert slo_summary.n_deadline_jobs == 3
        assert slo_summary.slo_attainment is not None
        assert 0.0 <= slo_summary.slo_attainment <= 1.0
        # Every record is accounted exactly once.
        assert slo_summary.n_jobs == 3
        for record in slo_summary.jobs:
            assert record.outcome in ("completed", "rejected")

    def test_degraded_jobs_train_all_bsp(self, slo_summary):
        degraded = [record for record in slo_summary.jobs if record.degraded]
        assert len(degraded) == slo_summary.n_degraded
        for record in degraded:
            assert record.percent == 100.0
            assert record.sync_policy == "sync-switch"  # requested policy

    def test_rejected_jobs_count_as_missed(self, slo_summary):
        rejected = [
            record
            for record in slo_summary.jobs
            if record.outcome == "rejected"
        ]
        assert len(rejected) == slo_summary.n_rejected
        for record in rejected:
            assert record.met_deadline is False
            assert record.completed_steps == 0
            assert record.images == 0

    def test_pinned_schedule_trains_as_under_fifo(self):
        # An un-tuned deadline job pinning bsp -> ssp -> asp keeps that
        # schedule under the SLO scheduler: same record as under FIFO.
        trace = (
            deadline_job(
                0, deadline=100_000.0, protocols=("bsp", "ssp", "asp"),
                fractions=(0.2, 0.3, 0.5),
            ),
        )
        records = [
            simulate_fleet(
                FleetConfig(
                    scenario="trace", scheduler=scheduler,
                    sync_policy="sync-switch", scale=0.002, trace=trace,
                )
            ).jobs[0]
            for scheduler in ("slo", "fifo")
        ]
        assert not records[0].degraded
        assert records[0].to_dict() == records[1].to_dict()

    def test_dead_on_arrival_trace_rejected_by_slo(self):
        trace = (
            deadline_job(0, arrival=100.0, deadline=5.0, n_workers=8),
            deadline_job(1, arrival=0.0, deadline=100_000.0, n_workers=8),
        )
        summary = simulate_fleet(
            FleetConfig(
                scenario="trace",
                scheduler="slo",
                sync_policy="sync-switch",
                seed=0,
                scale=SCALE,
                trace=trace,
            )
        )
        doa = next(r for r in summary.jobs if r.job_id == 0)
        assert doa.outcome == "rejected"
        assert doa.start == doa.finish == pytest.approx(100.0)
        assert summary.n_rejected == 1
        assert summary.slo_attainment == pytest.approx(0.5)

    def test_dead_on_arrival_trace_runs_under_fifo(self):
        # Non-SLO schedulers ignore deadlines entirely: the job trains
        # to completion and is simply counted as a miss.
        trace = (
            deadline_job(0, arrival=100.0, deadline=5.0, n_workers=8),
        )
        summary = simulate_fleet(
            FleetConfig(
                scenario="trace",
                scheduler="fifo",
                sync_policy="sync-switch",
                seed=0,
                scale=SCALE,
                trace=trace,
            )
        )
        record = summary.jobs[0]
        assert record.outcome == "completed"
        assert record.met_deadline is False
        assert summary.n_rejected == 0
        assert summary.slo_attainment == 0.0
