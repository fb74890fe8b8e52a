"""Tests for the experiment runner and its cache."""

import pytest

from repro.distsim.job import JobConfig
from repro.errors import ConfigurationError
from repro.experiments.materialize import with_steps_scale
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setups import SETUPS


@pytest.fixture()
def runner(tmp_path):
    return ExperimentRunner(scale=0.008, seeds=1, cache_dir=tmp_path)


def test_run_returns_training_result(runner):
    result = runner.run(SETUPS[1], {"kind": "switch", "percent": 100.0}, 0)
    assert result.completed_steps >= 400
    assert result.n_workers == 8


def test_memory_cache_returns_same_object(runner):
    spec = {"kind": "switch", "percent": 0.0}
    first = runner.run(SETUPS[1], spec, 0)
    second = runner.run(SETUPS[1], spec, 0)
    assert first is second


def test_disk_cache_survives_new_runner(tmp_path):
    spec = {"kind": "switch", "percent": 0.0}
    first = ExperimentRunner(scale=0.008, seeds=1, cache_dir=tmp_path).run(
        SETUPS[1], spec, 0
    )
    reloaded = ExperimentRunner(scale=0.008, seeds=1, cache_dir=tmp_path).run(
        SETUPS[1], spec, 0
    )
    assert reloaded.to_dict() == first.to_dict()


def test_cache_key_distinguishes_specs(runner):
    asp = runner.run(SETUPS[1], {"kind": "switch", "percent": 0.0}, 0)
    bsp = runner.run(SETUPS[1], {"kind": "switch", "percent": 100.0}, 0)
    assert asp.total_time != bsp.total_time


def test_cache_key_distinguishes_seeds(runner):
    spec = {"kind": "switch", "percent": 0.0}
    seed0 = runner.run(SETUPS[1], spec, 0)
    seed1 = runner.run(SETUPS[1], spec, 1)
    assert seed0.eval_accuracies != seed1.eval_accuracies


def test_run_many_counts(runner):
    results = runner.run_many(SETUPS[1], {"kind": "switch", "percent": 0.0},
                              seeds=2)
    assert len(results) == 2


def test_sweep_covers_grid(runner):
    sweep = runner.sweep(SETUPS[1], percents=(0.0, 100.0), seeds=1)
    assert set(sweep) == {0.0, 100.0}


def test_static_protocol_spec(runner):
    result = runner.run(SETUPS[1], {"kind": "static", "protocol": "ssp"}, 0)
    assert "ssp" in result.plan


def test_reversed_spec_runs_asp_first(runner):
    result = runner.run(SETUPS[1], {"kind": "reversed", "percent": 50.0}, 0)
    assert result.plan.startswith("asp")


def test_custom_static_spec_with_options(runner):
    result = runner.run(
        SETUPS[1],
        {
            "kind": "custom_static",
            "protocol": "asp",
            "options": {"batch_size": 256},
            "steps_scale": 0.5,
        },
        0,
    )
    assert result.images_processed == result.completed_steps * 256


def test_steps_scale_preserves_all_job_fields():
    """Regression: steps_scale must not reset fields to their defaults."""
    job = JobConfig(
        model="resnet32-sim",
        dataset="cifar10-sim",
        total_steps=4000,
        batch_size=256,
        divergence_threshold=7.5,
        seed=3,
    )
    scaled = with_steps_scale(job, 0.5)
    assert scaled.total_steps == 2000
    assert scaled.divergence_threshold == 7.5
    assert scaled.batch_size == 256
    assert scaled.seed == 3


def test_steps_scale_shortens_run(runner):
    full = runner.run(SETUPS[1], {"kind": "switch", "percent": 0.0}, 0)
    half = runner.run(
        SETUPS[1], {"kind": "switch", "percent": 0.0, "steps_scale": 0.5}, 0
    )
    assert half.completed_steps < full.completed_steps


def test_straggler_spec_slows_bsp(runner):
    quiet = runner.run(
        SETUPS[1],
        {"kind": "switch", "percent": 100.0, "ambient": False},
        0,
    )
    slowed = runner.run(
        SETUPS[1],
        {
            "kind": "switch",
            "percent": 100.0,
            "ambient": False,
            "stragglers": {"n": 1, "latency": 0.030, "permanent": True},
        },
        0,
    )
    assert slowed.total_time > quiet.total_time


def test_online_policy_spec_executes(runner):
    result = runner.run(
        SETUPS[1],
        {
            "kind": "switch",
            "percent": 50.0,
            "online": "elastic",
            "ambient": False,
            "stragglers": {"n": 1, "occurrences": 1, "latency": 0.030},
        },
        0,
    )
    assert result.completed_steps >= 400


def test_unknown_spec_kind_rejected(runner):
    with pytest.raises(ConfigurationError):
        runner.run(SETUPS[1], {"kind": "mystery"}, 0)


def test_bsp_mean_accuracy(runner):
    value = runner.bsp_mean_accuracy(SETUPS[1])
    assert 0.0 < value <= 1.0


def test_cache_disable(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "off")
    runner = ExperimentRunner(scale=0.008, seeds=1)
    assert runner._cache_dir is None
