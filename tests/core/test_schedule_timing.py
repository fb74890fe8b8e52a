"""TimingPolicy boundary behaviour for N-segment schedules."""

import pytest

from repro.core.policies import ProtocolSchedule, TimingPolicy
from repro.distsim.job import JobConfig, cumulative_step_targets
from repro.errors import ConfigurationError


def tiny_job(total_steps=1000) -> JobConfig:
    return JobConfig(
        model="resnet32-sim", dataset="cifar10-sim", total_steps=total_steps
    )


def step_targets(policy, total_steps):
    """Step targets of the plan ``policy`` builds over a schedule of its
    length."""
    protocols = ("bsp", "osp", "ssp", "asp")[: len(policy.fractions)]
    plan = policy.build_plan(tiny_job(), 8, ProtocolSchedule(protocols))
    return plan.step_targets(total_steps)


class TestFractionVector:
    def test_for_schedule_carries_the_vector(self):
        policy = TimingPolicy.for_schedule((0.25, 0.25, 0.5))
        assert policy.fractions == (0.25, 0.25, 0.5)
        assert policy.switch_fraction == 0.25

    def test_two_phase_derives_vector(self):
        policy = TimingPolicy(0.0625)
        assert policy.fractions == (0.0625, 0.9375)
        assert policy == TimingPolicy.for_schedule(
            (0.0625, 0.9375), source="manual"
        )

    def test_degenerate_two_phase_is_single_segment(self):
        for fraction, protocol in ((0.0, "asp"), (1.0, "bsp")):
            plan = TimingPolicy(fraction).build_plan(tiny_job(), 8)
            assert [segment.protocol for segment in plan.segments] == [
                protocol
            ]
            assert plan.segments[0].fraction == 1.0

    def test_vector_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            TimingPolicy.for_schedule((0.5, 0.4))

    def test_vector_entries_must_be_in_unit_interval(self):
        with pytest.raises(ConfigurationError):
            TimingPolicy.for_schedule((1.5, -0.5))

    def test_switch_fraction_must_match_first_entry(self):
        with pytest.raises(ConfigurationError):
            TimingPolicy(0.3, fractions=(0.25, 0.75))


class TestSegmentBoundaries:
    """Non-overlapping, budget-exhausting, trainer-exact rounding of
    the step targets of the plans a timing policy builds."""

    def test_exact_half_rounds_like_the_trainer(self):
        # int(round(.5)) banker's rounding: 0.5 * 3 = 1.5 -> 2.
        policy = TimingPolicy.for_schedule((0.5, 0.5))
        assert step_targets(policy, 3) == (2, 3)

    def test_boundaries_are_monotone_and_exhaust_budget(self):
        policy = TimingPolicy.for_schedule((0.1, 0.2, 0.3, 0.4))
        boundaries = step_targets(policy, 997)
        assert boundaries[-1] == 997
        assert list(boundaries) == sorted(boundaries)
        widths = [
            boundary - (boundaries[index - 1] if index else 0)
            for index, boundary in enumerate(boundaries)
        ]
        assert all(width >= 0 for width in widths)
        assert sum(widths) == 997

    def test_zero_fraction_segment_has_zero_width(self):
        policy = TimingPolicy.for_schedule((0.5, 0.0, 0.5))
        assert cumulative_step_targets(policy.fractions, 100) == (50, 50, 100)
        # The plan drops the zero-width segment.
        assert step_targets(policy, 100) == (50, 100)

    def test_final_boundary_pinned_even_with_rounding_drift(self):
        policy = TimingPolicy.for_schedule((1 / 3, 1 / 3, 1 / 3))
        assert step_targets(policy, 100)[-1] == 100

    @pytest.mark.parametrize("total_steps", [1, 2, 3, 7, 100, 997])
    def test_property_holds_across_budgets(self, total_steps):
        policy = TimingPolicy.for_schedule((0.125, 0.375, 0.25, 0.25))
        boundaries = step_targets(policy, total_steps)
        assert boundaries[-1] == total_steps
        assert list(boundaries) == sorted(boundaries)


class TestBuildPlan:
    def test_schedule_plan_skips_zero_fraction_segments(self):
        policy = TimingPolicy.for_schedule((0.5, 0.0, 0.5))
        plan = policy.build_plan(
            tiny_job(), 8, ProtocolSchedule(("bsp", "ssp", "asp"))
        )
        assert [segment.protocol for segment in plan.segments] == [
            "bsp", "asp"
        ]

    def test_all_opener_schedule_is_single_segment(self):
        policy = TimingPolicy.for_schedule((1.0, 0.0))
        plan = policy.build_plan(tiny_job(), 8, ProtocolSchedule(("bsp",
                                                                  "asp")))
        assert [segment.protocol for segment in plan.segments] == ["bsp"]

    def test_length_mismatch_rejected(self):
        policy = TimingPolicy.for_schedule((0.5, 0.5))
        with pytest.raises(ConfigurationError):
            policy.build_plan(
                tiny_job(), 8, ProtocolSchedule(("bsp", "ssp", "asp"))
            )

    def test_two_phase_policy_cannot_drive_longer_schedule(self):
        policy = TimingPolicy(0.25)
        with pytest.raises(ConfigurationError):
            policy.build_plan(
                tiny_job(), 8, ProtocolSchedule(("bsp", "ssp", "asp"))
            )

    def test_schedule_plan_fractions_match_vector(self):
        policy = TimingPolicy.for_schedule((0.25, 0.25, 0.5))
        plan = policy.build_plan(
            tiny_job(), 8, ProtocolSchedule(("bsp", "ssp", "asp"))
        )
        assert [segment.fraction for segment in plan.segments] == [
            0.25, 0.25, 0.5
        ]
