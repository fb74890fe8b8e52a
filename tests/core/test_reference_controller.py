"""The plain per-segment reference equals the controller, bit for bit.

``reference_controller.py`` is the independent oracle the one-shot
parity tests (``test_elastic_run.py::TestOneShotParity``, the fleet's
``test_unresized_jobs_match_one_shot_controller``) compare against.
This module checks it against :class:`SyncSwitchController` itself on
every offline plan shape: static, two-phase, N-segment with a dropped
zero share, reversed, a zero-step precise phase, a diverging tail,
stragglers on a thin link.  It compares two runs made on the same
machine, so it never consults ``REPRO_GOLDEN_SKIP``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from reference_controller import reference_run

from repro.core.policies import (
    PolicyManager,
    ProtocolPolicy,
    ProtocolSchedule,
    TimingPolicy,
)
from repro.core.runtime import SyncSwitchController
from repro.distsim.cluster import ClusterSpec
from repro.distsim.stragglers import StragglerEvent, StragglerSchedule
from repro.experiments.setups import SETUPS, scaled_job

SCALE = 0.004


def two_phase(fraction, second="asp"):
    return PolicyManager(
        timing=TimingPolicy(fraction),
        protocol=ProtocolPolicy(first="bsp", second=second),
    )


def schedule(protocols, fractions):
    return PolicyManager(
        timing=TimingPolicy.for_schedule(fractions),
        protocol=ProtocolSchedule(protocols),
    )


STRAGGLER = StragglerSchedule(
    [StragglerEvent(worker=2, start=1.0, duration=4.0, extra_latency=0.05)]
)

#: name -> (policies, job overrides, run options)
CASES = {
    "p1": (two_phase(0.0625), {}, {}),
    "bsp-only": (two_phase(1.0), {}, {}),
    "asp-only": (two_phase(0.0), {}, {}),
    "bsp-dssp": (two_phase(0.5, "dssp"), {}, {}),
    "zero-step-precise": (two_phase(0.001), {}, {}),
    "bsp-ssp-asp": (schedule(("bsp", "ssp", "asp"), (0.1, 0.3, 0.6)), {}, {}),
    "zero-share-dropped": (
        schedule(("bsp", "osp", "asp"), (0.25, 0.0, 0.75)), {}, {}
    ),
    "reversed": (
        PolicyManager(
            timing=TimingPolicy(0.5),
            protocol=ProtocolPolicy.allow_reversed("asp", "bsp"),
        ),
        {},
        {},
    ),
    "diverging-tail": (two_phase(0.25), {"base_lr": 5.0}, {}),
    "straggler-thin-link": (
        two_phase(0.25),
        {},
        {
            "stragglers": STRAGGLER,
            "ambient_noise": False,
            "overhead_bandwidth": 2.5,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_matches_controller(name):
    policies, job_overrides, options = CASES[name]
    job = replace(scaled_job(SETUPS[1], SCALE, 5), **job_overrides)
    spec = ClusterSpec(n_workers=8)
    options = {"overhead_time_scale": SCALE, **options}
    expected = SyncSwitchController(
        job=job, cluster_spec=spec, policies=policies, **options
    ).run_job().result
    reference = reference_run(job, spec, policies, **options)
    assert reference.to_dict() == expected.to_dict()
    if name == "diverging-tail":
        assert reference.diverged
