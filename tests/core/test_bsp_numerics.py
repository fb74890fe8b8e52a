"""BSP numerics read no clock.

A barrier round draws its timing from the jitter stream; its numeric
half reads only the worker set, the batch size and the step.  So for
one (setup, seed, ``steps_scale``) the parameters after the BSP opening
are bit-identical whether ambient cloud noise is on or off and under
any offline straggler schedule: only ``clock.now`` and the telemetry
differ.  This is the converse of ``test_timing_independence.py`` (the
clock reads no numerics).  Both runs are made on the same machine, so
the relation holds on any BLAS build.
"""

from __future__ import annotations

import pytest

from repro.experiments.materialize import _policies, _run
from repro.experiments.setups import SETUPS

SETUP = SETUPS[1]
SEED = 0
SCALE = 0.002
BASE = {"kind": "switch", "percent": 50.0, "steps_scale": 0.5}

#: name -> the spec keys that change only the timing model.
TIMINGS = {
    "ambient-off": {"ambient": False},
    "stragglers": {
        "stragglers": {"n": 2, "occurrences": 2, "latency": 0.05}
    },
    "permanent-straggler": {
        "stragglers": {"n": 1, "latency": 0.02, "permanent": True}
    },
}


def opening(spec: dict):
    """The run of ``spec`` paused where its asynchronous tail opens."""
    run = _run(SETUP, spec, SEED, SCALE, _policies(spec))
    assert run.run_to_tail() == "paused"
    return run


@pytest.fixture(scope="module")
def ambient_on():
    return opening(BASE)


@pytest.mark.parametrize("name", sorted(TIMINGS))
def test_the_bsp_opening_trains_the_same_parameters(ambient_on, name):
    run = opening(BASE | TIMINGS[name])
    assert run.session.step == ambient_on.session.step
    assert run.session.ps.version == ambient_on.session.ps.version
    assert run.session.ps.params.tobytes() == (
        ambient_on.session.ps.params.tobytes()
    )
    # The relation is not vacuous: the timing model did change.
    assert run.now != ambient_on.now
