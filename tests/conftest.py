"""Shared fixtures for the test suite.

Simulation-backed tests run at tiny scale (hundreds of steps) and share
a session-scoped result cache so repeated fixtures don't retrain.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.policies import (
    ConfigurationPolicy,
    PolicyManager,
    ProtocolSchedule,
    TimingPolicy,
)
from repro.core.runtime import ElasticTrainingRun
from repro.distsim.cluster import Cluster, ClusterSpec
from repro.distsim.job import JobConfig
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setups import SETUPS, scaled_job
from repro.mlcore.datasets import make_dataset
from repro.mlcore.models import make_model


#: ``--hypothesis-profile=deep``: five times the default example budget;
#: CI runs tests/test_codec_fuzz.py under it (budgets there scale with it).
settings.register_profile("deep", max_examples=500)


@pytest.fixture(scope="session")
def tiny_job() -> JobConfig:
    """A fast-but-real training job (setup-1 workload, tiny budget)."""
    return JobConfig(
        model="resnet32-sim",
        dataset="cifar10-sim",
        total_steps=640,
        batch_size=128,
        base_lr=0.004,
        eval_every=80,
        loss_log_every=40,
        seed=0,
    )


@pytest.fixture()
def spec8() -> ClusterSpec:
    """An 8-worker cluster spec."""
    return ClusterSpec(n_workers=8)


@pytest.fixture()
def spec16() -> ClusterSpec:
    """A 16-worker cluster spec."""
    return ClusterSpec(n_workers=16)


@pytest.fixture()
def cluster8(spec8) -> Cluster:
    """An 8-worker cluster."""
    return Cluster(spec8)


@pytest.fixture(scope="session")
def model32():
    """The setup-1 model."""
    return make_model("resnet32-sim")


@pytest.fixture(scope="session")
def dataset10():
    """The setup-1 dataset."""
    return make_dataset("cifar10-sim")


@pytest.fixture(scope="session")
def tiny_runner(tmp_path_factory) -> ExperimentRunner:
    """Session-scoped cached runner at tiny scale."""
    cache = tmp_path_factory.mktemp("exp_cache")
    return ExperimentRunner(scale=0.01, seeds=2, cache_dir=cache)


@pytest.fixture(scope="session")
def paused_run():
    """Factory: a Table-I setup's Sync-Switch job as the fleet admits
    it — an :class:`ElasticTrainingRun` held at its ASP-tail boundary."""

    def build(setup_index: int, seed: int, scale: float = 0.002):
        setup = SETUPS[setup_index]
        run = ElasticTrainingRun(
            job=scaled_job(setup, scale, seed),
            cluster_spec=ClusterSpec(n_workers=setup.n_workers),
            policies=PolicyManager(
                timing=TimingPolicy(
                    setup.policy_percent / 100.0, source="fleet"
                ),
                protocol=ProtocolSchedule(("bsp", "asp")),
                config=ConfigurationPolicy(),
            ),
            overhead_time_scale=scale,
        )
        assert run.run_to_tail() == "paused"
        return run

    return build
