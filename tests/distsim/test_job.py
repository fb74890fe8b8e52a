"""Tests for job configs and training plans."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.distsim.job import JobConfig, Segment, TrainingPlan
from repro.errors import ConfigurationError


def job(**overrides) -> JobConfig:
    base = dict(
        model="resnet32-sim",
        dataset="cifar10-sim",
        total_steps=1000,
    )
    base.update(overrides)
    return JobConfig(**base)


class TestJobConfig:
    def test_defaults_match_paper_shape(self):
        config = job()
        assert config.batch_size == 128
        assert config.momentum == 0.9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            job(total_steps=0)
        with pytest.raises(ConfigurationError):
            job(batch_size=-1)
        with pytest.raises(ConfigurationError):
            job(base_lr=0.0)
        with pytest.raises(ConfigurationError):
            job(momentum=1.0)
        with pytest.raises(ConfigurationError):
            job(eval_every=0)
        with pytest.raises(ConfigurationError):
            job(seed=-1)


class TestSegment:
    def test_known_protocols(self):
        for protocol in ("bsp", "asp", "ssp", "dssp"):
            assert Segment(protocol, 0.5).protocol == protocol

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            Segment("gossip", 0.5)

    def test_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            Segment("bsp", 1.5)


class TestTrainingPlan:
    def test_static_plan(self):
        plan = TrainingPlan.static("asp")
        assert len(plan.segments) == 1
        assert plan.segments[0].protocol == "asp"

    def test_static_plan_options(self):
        plan = TrainingPlan.static("ssp", staleness_bound=4)
        assert plan.segments[0].options == {"staleness_bound": 4}

    def test_two_phase_schedule_fractions(self):
        plan = TrainingPlan.schedule(("bsp", "asp"), (0.0625, 0.9375))
        assert plan.segments[0].fraction == pytest.approx(0.0625)
        assert plan.segments[1].fraction == pytest.approx(0.9375)

    def test_zero_first_share_degenerates_to_second(self):
        plan = TrainingPlan.schedule(("bsp", "asp"), (0.0, 1.0))
        assert len(plan.segments) == 1
        assert plan.segments[0].protocol == "asp"

    def test_zero_second_share_degenerates_to_first(self):
        plan = TrainingPlan.schedule(("bsp", "asp"), (1.0, 0.0))
        assert len(plan.segments) == 1
        assert plan.segments[0].protocol == "bsp"

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            TrainingPlan((Segment("bsp", 0.4), Segment("asp", 0.4)))

    def test_empty_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainingPlan(())

    def test_describe(self):
        plan = TrainingPlan.schedule(("bsp", "asp"), (0.25, 0.75))
        assert plan.describe() == "bsp:25% -> asp:75%"

    def test_custom_protocol_pair(self):
        plan = TrainingPlan.schedule(
            ("ssp", "asp"), (0.1, 0.9), [{"staleness_bound": 2}, None]
        )
        assert plan.segments[0].protocol == "ssp"
        assert plan.segments[0].options == {"staleness_bound": 2}


@st.composite
def fraction_vectors(draw):
    """Segment shares summing to 1 (within the plan's tolerance)."""
    weights = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=6))
    total = sum(weights)
    return [weight / total for weight in weights]


class TestStepTargets:
    """The one rounding rule every plan executor shares."""

    def test_two_phase_target_is_the_switch_step(self):
        plan = TrainingPlan.schedule(("bsp", "asp"), (0.0625, 0.9375))
        assert plan.step_targets(6400) == (400, 6400)
        # int(round(.)) is half-to-even: 0.5 * 3 = 1.5 -> 2
        plan = TrainingPlan.schedule(("bsp", "asp"), (0.5, 0.5))
        assert plan.step_targets(3) == (2, 3)

    @given(fractions=fraction_vectors(), total_steps=st.integers(1, 10**6))
    def test_targets_are_monotone_exhaustive_and_the_old_formula(
        self, fractions, total_steps
    ):
        plan = TrainingPlan.schedule(["bsp"] * len(fractions), fractions)
        targets = plan.step_targets(total_steps)
        assert len(targets) == len(fractions)
        assert list(targets) == sorted(targets) and targets[0] >= 0
        assert targets[-1] == total_steps
        # What DistributedTrainer._segment_target computed per index
        # before the rule moved onto the plan.
        assert targets == tuple(
            total_steps
            if index == len(fractions) - 1
            else int(round(sum(fractions[: index + 1]) * total_steps))
            for index in range(len(fractions))
        )
