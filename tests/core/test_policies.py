"""Tests for protocol / configuration / timing / straggler policies."""

import pytest

from repro.core.policies import (
    MOMENTUM_MODES,
    BaselinePolicy,
    ConfigurationPolicy,
    ElasticPolicy,
    GreedyPolicy,
    PolicyManager,
    ProtocolSchedule,
    TimingPolicy,
)
from repro.distsim.engines import precision_rank
from repro.distsim.job import JobConfig
from repro.errors import ConfigurationError
from repro.mlcore.optim import (
    ConstantMomentum,
    FixedScaledMomentum,
    LinearRampMomentum,
    NonlinearRampMomentum,
    ZeroMomentum,
)


def job(**overrides) -> JobConfig:
    base = dict(
        model="resnet32-sim",
        dataset="cifar10-sim",
        total_steps=64_000,
        batch_size=128,
        base_lr=0.1,
        momentum=0.9,
    )
    base.update(overrides)
    return JobConfig(**base)


class TestProtocolSchedule:
    def test_default_is_bsp_then_asp(self):
        assert ProtocolSchedule().protocols == ("bsp", "asp")

    def test_reversed_order_rejected(self):
        with pytest.raises(ConfigurationError, match="less precise"):
            ProtocolSchedule(("asp", "bsp"))

    def test_same_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolSchedule(("bsp", "bsp"))

    def test_ssp_to_asp_allowed(self):
        policy = ProtocolSchedule(("ssp", "asp"))
        assert policy.follows_paper_order()

    def test_allow_reversed_escape_hatch(self):
        policy = ProtocolSchedule.allow_reversed(("asp", "bsp"))
        assert policy.protocols == ("asp", "bsp")
        assert not policy.follows_paper_order()

    def test_precision_rank_ordering(self):
        ranks = [precision_rank(p) for p in ("bsp", "ssp", "dssp", "asp")]
        assert ranks == sorted(ranks)

    def test_unknown_protocol(self):
        with pytest.raises(ConfigurationError):
            precision_rank("gossip")
        with pytest.raises(ConfigurationError):
            ProtocolSchedule(("bsp", "gossip"))


class TestConfigurationPolicy:
    def test_bsp_options_use_linear_scaling(self):
        options = ConfigurationPolicy().options_for("bsp", job(), 8)
        assert options["lr_multiplier"] == 8.0
        assert options["batch_size"] == 128
        assert "momentum_schedule" not in options

    def test_asp_options_keep_base_values(self):
        options = ConfigurationPolicy().options_for("asp", job(), 8)
        assert options["lr_multiplier"] == 1.0
        assert isinstance(options["momentum_schedule"], ConstantMomentum)
        assert options["momentum_schedule"].value(0) == 0.9

    def test_global_batch_and_bsp_lr(self):
        policy = ConfigurationPolicy()
        assert policy.global_batch(job(), 8) == 1024
        assert policy.bsp_learning_rate(job(), 8) == pytest.approx(0.8)

    @pytest.mark.parametrize(
        "mode,expected_type",
        [
            ("baseline", ConstantMomentum),
            ("zero", ZeroMomentum),
            ("fixed-scaled", FixedScaledMomentum),
            ("nonlinear-ramp", NonlinearRampMomentum),
            ("linear-ramp", LinearRampMomentum),
        ],
    )
    def test_momentum_modes(self, mode, expected_type):
        policy = ConfigurationPolicy(momentum_mode=mode)
        schedule = policy.momentum_schedule(job(), 8)
        assert isinstance(schedule, expected_type)

    def test_all_paper_modes_registered(self):
        assert set(MOMENTUM_MODES) == {
            "baseline",
            "zero",
            "fixed-scaled",
            "nonlinear-ramp",
            "linear-ramp",
        }

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ConfigurationPolicy(momentum_mode="quadratic")

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigurationError):
            ConfigurationPolicy().options_for("bsp", job(), 0)


class TestTimingPolicy:
    def test_switch_step(self):
        assert TimingPolicy(0.0625).switch_step(64_000) == 4000
        assert TimingPolicy(0.0625).switch_percent == pytest.approx(6.25)

    def test_plan_contains_both_phases(self):
        plan = TimingPolicy(0.0625).build_plan(job(), 8)
        assert [segment.protocol for segment in plan.segments] == ["bsp", "asp"]
        assert plan.segments[0].options["lr_multiplier"] == 8.0
        assert plan.segments[1].options["lr_multiplier"] == 1.0

    def test_degenerate_plans(self):
        assert len(TimingPolicy(0.0).build_plan(job(), 8).segments) == 1
        assert len(TimingPolicy(1.0).build_plan(job(), 8).segments) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            TimingPolicy(1.5)


class TestStragglerPolicies:
    def test_names(self):
        assert BaselinePolicy().name == "baseline"
        assert GreedyPolicy().name == "greedy"
        assert ElasticPolicy().name == "elastic"

    def test_only_online_policies_react(self):
        assert not BaselinePolicy().reacts_online()
        assert GreedyPolicy().reacts_online()
        assert ElasticPolicy().reacts_online()


class TestPolicyManager:
    def test_build_plan_delegates(self):
        manager = PolicyManager(timing=TimingPolicy(0.125))
        plan = manager.build_plan(job(), 8)
        assert plan.segments[0].fraction == pytest.approx(0.125)

    def test_describe_uses_paper_notation(self):
        manager = PolicyManager(
            timing=TimingPolicy(0.0625), straggler=ElasticPolicy()
        )
        text = manager.describe()
        assert "[BSP, ASP]" in text
        assert "6.25%" in text
        assert "elastic" in text
