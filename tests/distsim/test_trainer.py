"""Tests for the distributed trainer."""

import pytest

from repro.distsim import (
    ClusterSpec,
    DistributedTrainer,
    JobConfig,
    TrainingPlan,
)
from repro.distsim.overheads import ProvisioningModel

#: BSP for the first quarter of the budget, then ASP.
SWITCH_AT_QUARTER = TrainingPlan.schedule(("bsp", "asp"), (0.25, 0.75))


def job(total_steps=480, seed=0, **overrides) -> JobConfig:
    base = dict(
        model="resnet32-sim",
        dataset="cifar10-sim",
        total_steps=total_steps,
        base_lr=0.004,
        eval_every=120,
        loss_log_every=60,
        seed=seed,
    )
    base.update(overrides)
    return JobConfig(**base)


def trainer(job_config=None, n_workers=4, **kwargs) -> DistributedTrainer:
    return DistributedTrainer(
        job_config or job(), ClusterSpec(n_workers=n_workers), **kwargs
    )


class TestPlanExecution:
    def test_static_plan_completes_budget(self):
        result = trainer().run(TrainingPlan.static("asp"))
        assert result.completed_steps == 480
        assert not result.diverged
        assert result.switch_count == 0

    def test_bsp_rounds_may_overshoot_by_less_than_n(self):
        result = trainer(job(total_steps=481), n_workers=4).run(
            TrainingPlan.static("bsp")
        )
        assert 481 <= result.completed_steps < 481 + 4

    def test_switching_plan_runs_both_segments(self):
        result = trainer().run(SWITCH_AT_QUARTER)
        protocols = [record["protocol"] for record in result.segment_summary]
        assert protocols == ["bsp", "asp"]
        bsp_segment = result.segment_summary[0]
        assert bsp_segment["end_step"] == pytest.approx(120, abs=4)

    def test_switch_charges_exactly_one_overhead(self):
        result = trainer().run(SWITCH_AT_QUARTER)
        assert result.switch_count == 1
        expected = ProvisioningModel(parallel=True).switch_time(4)
        assert result.total_overhead == pytest.approx(expected)

    def test_static_plan_charges_no_overhead(self):
        result = trainer().run(TrainingPlan.static("bsp"))
        assert result.total_overhead == 0.0

    def test_overhead_included_in_total_time(self):
        result = trainer().run(SWITCH_AT_QUARTER)
        segments_time = sum(r["duration"] for r in result.segment_summary)
        assert result.total_time == pytest.approx(
            segments_time + result.total_overhead, rel=0.01
        )

    def test_images_accounting(self):
        result = trainer().run(TrainingPlan.static("asp"))
        assert result.images_processed == 480 * 128

    def test_eval_curve_populated(self):
        result = trainer().run(TrainingPlan.static("asp"))
        assert len(result.eval_accuracies) >= 3
        assert all(0.0 <= acc <= 1.0 for acc in result.eval_accuracies)
        assert list(result.eval_steps) == sorted(result.eval_steps)

    def test_loss_curve_populated(self):
        result = trainer().run(TrainingPlan.static("bsp"))
        assert len(result.loss_values) >= 3
        # training should reduce the loss overall
        assert result.loss_values[-1] < result.loss_values[0]

    def test_plan_description_recorded(self):
        plan = TrainingPlan.schedule(("bsp", "asp"), (0.0625, 0.9375))
        result = trainer().run(plan)
        assert result.plan == plan.describe()

    def test_seed_changes_outcome(self):
        result_a = trainer(job(seed=0)).run(TrainingPlan.static("asp"))
        result_b = trainer(job(seed=1)).run(TrainingPlan.static("asp"))
        assert result_a.eval_accuracies != result_b.eval_accuracies

    def test_same_seed_is_deterministic(self):
        result_a = trainer(job(seed=0)).run(TrainingPlan.static("asp"))
        result_b = trainer(job(seed=0)).run(TrainingPlan.static("asp"))
        assert result_a.eval_accuracies == result_b.eval_accuracies
        assert result_a.total_time == result_b.total_time


class TestDivergenceHandling:
    def test_asp_on_16_workers_diverges(self):
        result = trainer(
            job(total_steps=1200), n_workers=16, ambient_noise=False
        ).run(TrainingPlan.static("asp"))
        assert result.diverged
        assert result.diverged_step is not None
        assert result.completed_steps < 1200
        assert result.reported_accuracy is None

    def test_bsp_on_16_workers_converges(self):
        result = trainer(job(total_steps=480), n_workers=16).run(
            TrainingPlan.static("bsp")
        )
        assert not result.diverged

    def test_divergence_time_is_partial(self):
        full = trainer(job(total_steps=1200), n_workers=16).run(
            TrainingPlan.static("bsp")
        )
        diverged = trainer(job(total_steps=1200), n_workers=16).run(
            TrainingPlan.static("asp")
        )
        assert diverged.total_time < full.total_time


class TestAmbientNoise:
    def test_ambient_noise_slows_training(self):
        noisy = trainer(job(seed=2), ambient_noise=True).run(
            TrainingPlan.static("bsp")
        )
        quiet = trainer(job(seed=2), ambient_noise=False).run(
            TrainingPlan.static("bsp")
        )
        assert noisy.total_time > quiet.total_time

    def test_ambient_noise_fattens_staleness_tail(self):
        noisy = trainer(job(seed=2, total_steps=960), ambient_noise=True).run(
            TrainingPlan.static("asp")
        )
        quiet = trainer(job(seed=2, total_steps=960), ambient_noise=False).run(
            TrainingPlan.static("asp")
        )
        assert noisy.staleness["max"] > quiet.staleness["max"]
