"""The evaluation bound that lets a fleet cell skip evaluations.

A fleet record reads one number of a job's accuracy curve, the
reported accuracy: the converged value once five evaluations agree
within 0.1 %, else the final evaluation.  A session built with
``skip_unread_evals`` (an untraced fleet cell) therefore leaves out
every periodic evaluation of a run that can never fill a convergence
window, and evaluates at the final step instead.  The rule assumes a
run records at most ``(total_steps - 1) // eval_every + 1`` periodic
evaluations.

The property here pins that bound for every registry engine, in one-
to three-segment plans, over step budgets and evaluation cadences that
put runs on both sides of the window, and checks that the skipping run
reports the full run's accuracy (and divergence).  The trap case is a
run whose last periodic evaluation falls on its final step: the full
run then adds no final evaluation, so the skipping run must compute
that one itself.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    ConfigurationPolicy,
    PolicyManager,
    ProtocolSchedule,
    TimingPolicy,
)
from repro.core.runtime import ElasticTrainingRun
from repro.distsim.cluster import ClusterSpec
from repro.distsim.engines import known_protocols
from repro.experiments.setups import SETUPS, scaled_job
from repro.mlcore.metrics import ConvergenceTracker

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SCALE = 0.003
#: Registered protocols, most precise first: any ordered subset is a
#: valid (precision-decreasing) schedule.
PROTOCOLS = known_protocols()
#: Divergence thresholds: the job default (never reached here) and
#: two that asynchronous segments cross at varying steps.
THRESHOLDS = (None, 3.0, 4.5)
WINDOW = ConvergenceTracker.window

#: Examples per engine: the default profile has 100 examples, the
#: ``deep`` one 500, and the budget scales with that ratio.
DEPTH = max(1, settings.default.max_examples // 100)


def make_run(
    protocols, weights, seed, n_workers, steps, every, threshold, skip=False
):
    job = replace(
        scaled_job(SETUPS[1], SCALE, seed), total_steps=steps, eval_every=every
    )
    if threshold is not None:
        job = replace(job, divergence_threshold=threshold)
    total = sum(weights)
    return ElasticTrainingRun(
        job=job,
        cluster_spec=ClusterSpec(n_workers=n_workers),
        policies=PolicyManager(
            timing=TimingPolicy.for_schedule(
                [weight / total for weight in weights]
            ),
            protocol=ProtocolSchedule(protocols),
            config=ConfigurationPolicy(),
        ),
        overhead_time_scale=SCALE,
        skip_unread_evals=skip,
    )


def bound(steps: int, every: int) -> int:
    """Most periodic evaluations a ``steps``-step run can record."""
    return (steps - 1) // every + 1


@st.composite
def plans(draw, protocol: str):
    """A one- to three-segment plan holding ``protocol``, its inputs,
    and a step budget and cadence on either side of the window."""
    others = draw(
        st.lists(
            st.sampled_from([name for name in PROTOCOLS if name != protocol]),
            max_size=2,
            unique=True,
        )
    )
    chosen = {protocol, *others}
    protocols = tuple(name for name in PROTOCOLS if name in chosen)
    weights = draw(
        st.lists(
            st.integers(1, 4),
            min_size=len(protocols),
            max_size=len(protocols),
        )
    )
    return (
        protocols,
        tuple(weights),
        draw(st.integers(0, 7)),
        draw(st.sampled_from((4, 8))),
        draw(st.integers(1, 120)),
        draw(st.integers(1, 40)),
        draw(st.sampled_from(THRESHOLDS)),
    )


class TestPeriodicEvaluationBound:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @settings(max_examples=10 * DEPTH, deadline=None)
    @given(data=st.data())
    def test_bound_holds_and_skipping_reports_the_same(self, protocol, data):
        inputs = data.draw(plans(protocol))
        steps, every = inputs[4], inputs[5]
        full = make_run(*inputs)
        full.run_to_completion()
        periodic = len(full.session.telemetry.eval_log)
        assert periodic <= bound(steps, every)
        expected = full.result()

        lean = make_run(*inputs, skip=True)
        lean.run_to_completion()
        result = lean.result()
        assert result.diverged == expected.diverged
        assert result.completed_steps == expected.completed_steps
        assert result.reported_accuracy == expected.reported_accuracy
        if not expected.diverged and expected.completed_steps > 0:
            assert result.reported_accuracy is not None
        assert len(result.eval_steps) <= len(expected.eval_steps)


class TestFinalEvaluation:
    #: 51 steps at a cadence of 25 on one asynchronous engine: periodic
    #: evaluations at steps 1, 26 and 51 — the last is the final step.
    TRAP = (("asp",), (1,), 0, 4, 51, 25, None)

    def test_trap_run_reports_its_final_step(self):
        full = make_run(*self.TRAP)
        full.run_to_completion()
        # Precondition: the full run's last periodic evaluation is its
        # final one, so finalize adds none.
        assert list(full.session.telemetry.eval_log.column(0)) == [1, 26, 51]
        expected = full.result()
        assert expected.eval_steps == (1, 26, 51)
        assert bound(51, 25) + 1 < WINDOW

        lean = make_run(*self.TRAP, skip=True)
        lean.run_to_completion()
        assert len(lean.session.telemetry.eval_log) == 0
        result = lean.result()
        assert result.eval_steps == (51,)
        assert result.reported_accuracy is not None
        assert result.reported_accuracy == expected.reported_accuracy
