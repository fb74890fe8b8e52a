"""ElasticTrainingRun.branch_opening: one BSP opening, many plans.

Every branch must finish exactly as its plan's own run does — compared
on the whole ``TrainingResult.to_dict()``, with no hashes, so the
checks hold on any BLAS build.
"""

from dataclasses import replace

import pytest

from repro.core.policies import (
    ConfigurationPolicy,
    GreedyPolicy,
    PolicyManager,
    ProtocolSchedule,
    TimingPolicy,
)
from repro.core.runtime import ElasticTrainingRun
from repro.distsim.cluster import ClusterSpec
from repro.errors import ConfigurationError
from repro.experiments.setups import SETUPS, scaled_job

SETUP = SETUPS[1]
JOB = scaled_job(SETUP, 0.002, 0)  # 400 steps, 8 workers
PERCENTS = (3.125, 6.25, 12.5, 25.0, 50.0)


def policies(protocols=("bsp", "asp"), fractions=None, percent=None, **kwargs):
    if percent is not None:
        fractions = (percent / 100.0, 1.0 - percent / 100.0)
    return PolicyManager(
        timing=TimingPolicy.for_schedule(fractions, source="harness"),
        protocol=ProtocolSchedule.allow_reversed(protocols),
        config=ConfigurationPolicy(),
        **kwargs,
    )


def new_run(job, manager) -> ElasticTrainingRun:
    return ElasticTrainingRun(
        job=job,
        cluster_spec=ClusterSpec(n_workers=SETUP.n_workers),
        policies=manager,
        overhead_time_scale=0.002,
    )


def alone(job, manager) -> dict:
    run = new_run(job, manager)
    run.run_to_completion()
    return run.result().to_dict()


def shared(job, trunk, members) -> tuple[dict, list[dict]]:
    run = new_run(job, trunk)
    branches = run.branch_opening(members)
    results = []
    for branch in branches:
        branch.run_to_completion()
        results.append(branch.result().to_dict())
    run.run_to_completion()
    return run.result().to_dict(), results


def test_every_branch_and_the_trunk_finish_as_their_own_runs():
    trunk = policies(("bsp",), (1.0,))
    members = [policies(percent=percent) for percent in PERCENTS]
    trunk_result, results = shared(JOB, trunk, members)
    assert trunk_result == alone(JOB, trunk)
    for manager, result in zip(members, results):
        assert result == alone(JOB, manager)
    # The opening's record is the trunk's alone: one per branch too.
    assert [len(result["segment_summary"]) for result in results] == [2] * 5


def test_members_of_one_switch_step_and_a_multi_segment_tail():
    trunk = policies(percent=50.0)
    members = [
        policies(percent=50.0),
        policies(("bsp", "ssp", "asp"), (0.25, 0.25, 0.5)),
        policies(("bsp", "asp"), (0.001, 0.999)),  # a zero-step opening
    ]
    trunk_result, results = shared(JOB, trunk, members)
    assert trunk_result == alone(JOB, trunk)
    for manager, result in zip(members, results):
        assert result == alone(JOB, manager)


@pytest.mark.parametrize(
    "change, diverged_at",
    [
        # BSP at a 10x learning rate blows up mid-opening, after the
        # members up to 12.5 % branched; the rest end diverged.
        ({"base_lr": 0.04}, 72),
        # A threshold below the first round's loss ends every opening.
        ({"divergence_threshold": 3.0}, 8),
    ],
    ids=["mid-opening", "first-round"],
)
def test_a_diverging_opening_ends_each_member_that_reaches_it(
    change, diverged_at
):
    job = replace(JOB, **change)
    trunk = policies(("bsp",), (1.0,))
    members = [policies(percent=percent) for percent in PERCENTS]
    trunk_result, results = shared(job, trunk, members)
    assert trunk_result == alone(job, trunk)
    assert trunk_result["diverged_step"] == diverged_at
    reached = 0
    for manager, result in zip(members, results):
        assert result == alone(job, manager)
        if result["diverged_step"] == diverged_at:
            reached += 1
            assert result["plan"] == manager.build_plan(job, 8).describe()
    assert reached >= 2


OSP = ("osp", "asp")
GREEDY = {"straggler": GreedyPolicy()}


@pytest.mark.parametrize(
    "trunk, member",
    [
        (policies(OSP, percent=50.0), policies(OSP, percent=25.0)),
        (policies(percent=50.0), policies(percent=75.0)),
        (policies(percent=50.0), policies(("asp", "bsp"), percent=25.0)),
        (policies(percent=50.0), policies(percent=25.0, **GREEDY)),
        (policies(percent=50.0, **GREEDY), policies(percent=25.0)),
    ],
    ids=[
        "osp-opening",
        "longer-member",
        "asp-member",
        "online-member",
        "online-trunk",
    ],
)
def test_an_opening_that_is_no_prefix_is_refused(trunk, member):
    with pytest.raises(ConfigurationError):
        new_run(JOB, trunk).branch_opening([member])


def test_a_run_that_started_training_cannot_branch():
    run = new_run(JOB, policies(percent=50.0))
    run.advance_to(1.0)
    with pytest.raises(ConfigurationError):
        run.branch_opening([policies(percent=25.0)])
