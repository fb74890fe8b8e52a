"""End-to-end tests for the Sync-Switch controller."""

import pytest

from repro.core.policies import (
    ElasticPolicy,
    GreedyPolicy,
    PolicyManager,
    TimingPolicy,
)
from repro.core.runtime import (
    StragglerDetector,
    SyncSwitchController,
    ThroughputProfiler,
)
from repro.distsim.cluster import ClusterSpec
from repro.distsim.job import JobConfig, Segment
from repro.distsim.stragglers import StragglerEvent, StragglerSchedule


def job(total_steps=640, seed=0) -> JobConfig:
    return JobConfig(
        model="resnet32-sim",
        dataset="cifar10-sim",
        total_steps=total_steps,
        base_lr=0.004,
        eval_every=160,
        loss_log_every=80,
        seed=seed,
    )


def controller(policies, stragglers=None, total_steps=640, **kwargs):
    return SyncSwitchController(
        job=job(total_steps=total_steps),
        cluster_spec=ClusterSpec(n_workers=8),
        policies=policies,
        stragglers=stragglers,
        ambient_noise=False,
        **kwargs,
    )


def straggler_during_bsp(latency=0.030) -> StragglerSchedule:
    return StragglerSchedule(
        [StragglerEvent(worker=3, start=3.0, duration=25.0,
                        extra_latency=latency)]
    )


class TestOfflinePlans:
    def test_static_bsp_job(self):
        outcome = controller(PolicyManager(timing=TimingPolicy(1.0))).run_job()
        assert outcome.result.completed_steps >= 640
        assert outcome.result.switch_count == 0
        assert outcome.bsp_steps == outcome.result.completed_steps

    def test_switching_job_charges_switch(self):
        outcome = controller(
            PolicyManager(timing=TimingPolicy(0.25))
        ).run_job()
        assert outcome.result.switch_count == 1
        assert outcome.bsp_steps == pytest.approx(160, abs=8)
        assert outcome.async_steps == pytest.approx(480, abs=8)

    def test_policy_description_attached(self):
        outcome = controller(
            PolicyManager(timing=TimingPolicy(0.0625))
        ).run_job()
        assert "6.25%" in outcome.policy_description

    def test_intervention_free_without_online_policy(self):
        outcome = controller(
            PolicyManager(timing=TimingPolicy(0.25)),
            stragglers=straggler_during_bsp(),
        ).run_job()
        assert outcome.interventions == ()


class TestGreedyPolicy:
    def test_switches_to_asp_on_detection(self):
        outcome = controller(
            PolicyManager(
                timing=TimingPolicy(0.5), straggler=GreedyPolicy()
            ),
            stragglers=straggler_during_bsp(),
        ).run_job()
        kinds = [entry["kind"] for entry in outcome.interventions]
        assert "greedy-switch-to-asp" in kinds
        assert outcome.result.switch_count >= 2  # round trip + planned switch

    def test_switches_back_after_clearance(self):
        outcome = controller(
            PolicyManager(
                timing=TimingPolicy(0.5), straggler=GreedyPolicy()
            ),
            stragglers=straggler_during_bsp(),
        ).run_job()
        kinds = [entry["kind"] for entry in outcome.interventions]
        assert "greedy-switch-back-to-bsp" in kinds
        # BSP budget eventually fulfilled despite the interlude
        assert outcome.bsp_steps >= 0.5 * 640 - 8

    def test_no_interventions_without_stragglers(self):
        outcome = controller(
            PolicyManager(timing=TimingPolicy(0.5), straggler=GreedyPolicy())
        ).run_job()
        assert outcome.interventions == ()

    def test_interlude_at_exhausted_budget_is_free(self):
        """Regression: no switch may be charged (or logged) once the job
        is already at its step budget."""
        policy = GreedyPolicy()
        ctrl = controller(
            PolicyManager(timing=TimingPolicy(0.5), straggler=policy)
        )
        session = ctrl.trainer.new_session()
        bsp = Segment("bsp", 0.5)
        asp = Segment("asp", 0.5)
        ctrl.trainer.run_segment(
            session, bsp, ctrl.job.total_steps, charge_switch=False
        )
        assert session.step >= ctrl.job.total_steps
        overhead_before = session.telemetry.total_overhead
        ctrl._interventions = []
        finished = ctrl._greedy_interlude(
            session,
            bsp,
            asp,
            StragglerDetector(
                consecutive=policy.detection_windows,
                clear_windows=policy.clear_windows,
            ),
            ThroughputProfiler(batch_size=ctrl.job.batch_size, window=5),
            [3],
        )
        assert finished is True
        assert ctrl._interventions == []
        assert session.telemetry.total_overhead == overhead_before
        assert session.telemetry.switch_count == 0


class TestElasticPolicy:
    def test_evicts_and_restores(self):
        outcome = controller(
            PolicyManager(
                timing=TimingPolicy(0.5), straggler=ElasticPolicy()
            ),
            stragglers=straggler_during_bsp(),
        ).run_job()
        kinds = [entry["kind"] for entry in outcome.interventions]
        assert "elastic-evict" in kinds
        assert "elastic-restore" in kinds
        evicted = [
            entry["worker"]
            for entry in outcome.interventions
            if entry["kind"] == "elastic-evict"
        ]
        assert evicted == [3]

    def test_completes_full_budget(self):
        outcome = controller(
            PolicyManager(
                timing=TimingPolicy(0.5), straggler=ElasticPolicy()
            ),
            stragglers=straggler_during_bsp(),
        ).run_job()
        assert outcome.result.completed_steps >= 640

    def test_faster_than_baseline_under_long_straggler(self):
        schedule = StragglerSchedule(
            [StragglerEvent(worker=3, start=3.0, duration=120.0,
                            extra_latency=0.030)]
        )
        baseline = controller(
            PolicyManager(timing=TimingPolicy(0.5)),
            stragglers=schedule,
            total_steps=960,
            overhead_time_scale=0.05,
        ).run_job()
        elastic = controller(
            PolicyManager(timing=TimingPolicy(0.5), straggler=ElasticPolicy()),
            stragglers=schedule,
            total_steps=960,
            overhead_time_scale=0.05,
        ).run_job()
        assert elastic.result.total_time < baseline.result.total_time

