"""The plain per-segment reference equals the controller, bit for bit.

``reference_controller.py`` is the independent oracle the one-shot
parity tests (``test_elastic_run.py::TestOneShotParity``, the fleet's
``test_unresized_jobs_match_one_shot_controller``) compare against.
This module checks it against :class:`SyncSwitchController` itself on
every offline plan shape: static, two-phase, N-segment with a dropped
zero share, reversed, a zero-step precise phase, a diverging tail,
stragglers on a thin link.  It compares two runs made on the same
machine, so it never consults ``REPRO_GOLDEN_SKIP``.

It also pins that the paper's two-phase switch (a single switch
fraction) is the N=2 protocol schedule: equal plans over every registry
pair and a fraction grid, and equal controller results on every
two-phase case.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from reference_controller import reference_run

from repro.core.policies import (
    ConfigurationPolicy,
    PolicyManager,
    ProtocolSchedule,
    TimingPolicy,
)
from repro.core.runtime import SyncSwitchController
from repro.distsim.cluster import ClusterSpec
from repro.distsim.engines import known_protocols, precision_rank
from repro.distsim.job import Segment, TrainingPlan
from repro.distsim.stragglers import StragglerEvent, StragglerSchedule
from repro.experiments.setups import SETUPS, scaled_job

SCALE = 0.004

#: The Fig. 5a ablation's ASP -> BSP order, built through the escape
#: hatch; every other pair follows the paper's precision order.
REVERSED = ("asp", "bsp")


def protocol_schedule(protocols):
    if tuple(protocols) == REVERSED:
        return ProtocolSchedule.allow_reversed(protocols)
    return ProtocolSchedule(protocols)


def two_phase(fraction, protocols=("bsp", "asp")):
    return PolicyManager(
        timing=TimingPolicy(fraction), protocol=protocol_schedule(protocols)
    )


def schedule(protocols, fractions):
    return PolicyManager(
        timing=TimingPolicy.for_schedule(fractions),
        protocol=protocol_schedule(protocols),
    )


STRAGGLER = StragglerSchedule(
    [StragglerEvent(worker=2, start=1.0, duration=4.0, extra_latency=0.05)]
)

#: name -> (protocols, share of the first protocol) of every two-phase
#: case: one switch, from the first protocol to the second, at ``p %``.
TWO_PHASE = {
    "p1": (("bsp", "asp"), 0.0625),
    "bsp-only": (("bsp", "asp"), 1.0),
    "asp-only": (("bsp", "asp"), 0.0),
    "bsp-dssp": (("bsp", "dssp"), 0.5),
    "zero-step-precise": (("bsp", "asp"), 0.001),
    "reversed": (REVERSED, 0.5),
    "diverging-tail": (("bsp", "asp"), 0.25),
    "straggler-thin-link": (("bsp", "asp"), 0.25),
}

#: name -> (job overrides, run options) of the cases that have any.
OVERRIDES = {
    "diverging-tail": ({"base_lr": 5.0}, {}),
    "straggler-thin-link": (
        {},
        {
            "stragglers": STRAGGLER,
            "ambient_noise": False,
            "overhead_bandwidth": 2.5,
        },
    ),
}

#: name -> policies, every offline plan shape.
CASES = {
    **{
        name: two_phase(fraction, protocols)
        for name, (protocols, fraction) in TWO_PHASE.items()
    },
    "bsp-ssp-asp": schedule(("bsp", "ssp", "asp"), (0.1, 0.3, 0.6)),
    "zero-share-dropped": schedule(("bsp", "osp", "asp"), (0.25, 0.0, 0.75)),
}


def case_inputs(name):
    """The job, cluster and run options of case ``name``."""
    job_overrides, options = OVERRIDES.get(name, ({}, {}))
    job = replace(scaled_job(SETUPS[1], SCALE, 5), **job_overrides)
    return job, ClusterSpec(n_workers=8), {
        "overhead_time_scale": SCALE,
        **options,
    }


def controller_result(name, policies):
    job, spec, options = case_inputs(name)
    return SyncSwitchController(
        job=job, cluster_spec=spec, policies=policies, **options
    ).run_job().result


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_matches_controller(name):
    expected = controller_result(name, CASES[name])
    job, spec, options = case_inputs(name)
    reference = reference_run(job, spec, CASES[name], **options)
    assert reference.to_dict() == expected.to_dict()
    if name == "diverging-tail":
        assert reference.diverged


# ----------------------------------------------------------------------
# The paper's two-phase switch is the N=2 schedule
# ----------------------------------------------------------------------
#: Every registry pair in precision order, plus the reversed ablation.
PAIRS = tuple(
    (first, second)
    for first in known_protocols()
    for second in known_protocols()
    if precision_rank(first) < precision_rank(second)
) + (REVERSED,)

#: The degenerate ends, a zero-step precise phase, the Table I points,
#: the fleet's ``percent / 100`` route and seeded random draws.
FRACTIONS = (
    (0.0, 1.0, 1e-3, 1.0 - 1e-3, 0.0625, 0.125, 0.5, 1.0 / 3.0)
    + tuple(percent / 100.0 for percent in (6.25, 12.5, 33.3, 50.0, 87.5))
    + tuple(random.Random(30).random() for _ in range(24))
)


def paper_two_phase_plan(protocols, fraction, job, n_workers):
    """Section IV's plan, transcribed: ``first`` for ``fraction`` of
    the budget, then ``second``; 0 and 1 are the static baselines."""
    first, second = protocols
    options = ConfigurationPolicy().options_for
    if fraction == 0.0:
        shares = ((second, 1.0),)
    elif fraction == 1.0:
        shares = ((first, 1.0),)
    else:
        shares = ((first, fraction), (second, 1.0 - fraction))
    return TrainingPlan(
        tuple(
            Segment(protocol, share, options(protocol, job, n_workers))
            for protocol, share in shares
        )
    )


@pytest.mark.parametrize("protocols", PAIRS, ids="->".join)
def test_two_phase_plan_is_the_n2_schedule_plan(protocols):
    job = scaled_job(SETUPS[1], SCALE, 5)
    for fraction in FRACTIONS:
        two = two_phase(fraction, protocols).build_plan(job, 8)
        n2 = schedule(protocols, (fraction, 1.0 - fraction)).build_plan(
            job, 8
        )
        assert two == n2 == paper_two_phase_plan(protocols, fraction, job, 8)
        for total_steps in (1, 3, 997, job.total_steps, 64_000):
            assert two.step_targets(total_steps) == n2.step_targets(
                total_steps
            )


@pytest.mark.parametrize("name", sorted(TWO_PHASE))
def test_two_phase_controller_is_the_n2_schedule_controller(name):
    protocols, fraction = TWO_PHASE[name]
    n2 = schedule(protocols, (fraction, 1.0 - fraction))
    assert controller_result(name, CASES[name]).to_dict() == (
        controller_result(name, n2).to_dict()
    )
