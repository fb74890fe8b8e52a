"""The clock is the timing model's: a numerics-free run keeps it exactly.

The fleet projects a preemptible job's completion from a numerics-free
copy of its paused run (``ElasticTrainingRun.timing_fork``): the same
engine loops on a session that computes no gradient, loss or
evaluation and whose parameter server only counts versions.  That is
right only if numerics never reach the clock except through
divergence, and the property here pins it: for every registry engine,
in two- to four-segment plans, through random ``advance_to`` pauses and
``resize`` calls, the numerics-free run's clock, step, segment log,
worker-duration log, overheads and staleness counts equal the numeric
run's bit for bit.  When the numeric run diverges, a numerics-free run
told the step diverges at the same update, at the same instant.
RuntimeWarnings are errors in this module: a null path that pushed
garbage through the optimizer would show up as NaN warnings.

The fleet half: inside a completion projection no gradient or
evaluation is computed, and on a preempting stream every gradient step
executed is a step some job delivered.

CI reruns this file under the ``deep`` hypothesis profile
(tests/conftest.py: five times the examples) with a fixed seed.
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
from repro.distsim.trainer import DistributedTrainer
from repro.errors import ConfigurationError
from repro.experiments.setups import SETUPS, scaled_job
from repro.fleet import FleetConfig, simulate_fleet
from repro.mlcore.models import ResidualMLPClassifier

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SCALE = 0.003
#: Registered protocols, most precise first: any ordered subset is a
#: valid (precision-decreasing) schedule.
PROTOCOLS = known_protocols()
#: Divergence thresholds: the job default (never reached here) and
#: three that asynchronous segments cross at varying steps.
THRESHOLDS = (None, 3.0, 4.5, 6.0)

#: Examples per engine: the default profile has 100 examples, the
#: ``deep`` one 500, and the budget scales with that ratio.
DEPTH = max(1, settings.default.max_examples // 100)


def make_run(protocols, weights, seed, n_workers, threshold):
    job = scaled_job(SETUPS[1], SCALE, seed)
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
    )


def drive(run: ElasticTrainingRun, ops) -> list[str]:
    """Apply ``ops`` at successive pauses, then finish the run."""
    statuses = []
    for kind, value in ops:
        if run.finished:
            break
        if kind == "advance":
            statuses.append(run.advance_to(run.now + value))
        else:
            run.resize(min(value, run.cluster_spec.n_workers))
    statuses.append(run.run_to_completion())
    return statuses


def timeline(run: ElasticTrainingRun) -> tuple:
    """Everything about a finished run that the timing model decides."""
    session = run.session
    telemetry = session.telemetry
    return (
        run.completion(),
        run.n_active,
        [
            (r.protocol, r.start_step, r.end_step, r.start_time, r.duration)
            for r in telemetry.segments
        ],
        list(telemetry.worker_durations),
        list(telemetry.overheads),
        telemetry.staleness_counts,
    )


@st.composite
def runs(draw, protocol: str):
    """A plan holding ``protocol`` plus up to three more engines, its
    inputs, and the pauses and resizes to put it through."""
    others = draw(
        st.lists(
            st.sampled_from([name for name in PROTOCOLS if name != protocol]),
            min_size=1,
            max_size=3,
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
    n_workers = draw(st.sampled_from((4, 8)))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("advance"), st.floats(0.05, 6.0)),
                st.tuples(st.just("resize"), st.integers(1, 8)),
            ),
            max_size=5,
        )
    )
    return (
        protocols,
        tuple(weights),
        draw(st.integers(0, 7)),
        n_workers,
        draw(st.sampled_from(THRESHOLDS)),
        ops,
    )


class TestNumericsFreeRun:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @settings(max_examples=6 * DEPTH, deadline=None)
    @given(data=st.data())
    def test_clock_equals_the_numeric_run(self, protocol, data):
        protocols, weights, seed, n_workers, threshold, ops = data.draw(
            runs(protocol)
        )
        numeric = make_run(protocols, weights, seed, n_workers, threshold)
        statuses = drive(numeric, ops)
        realized = timeline(numeric)
        # The numerics-free copy, taken before the first update and
        # told where the numeric run diverged, if it did.
        fresh = make_run(protocols, weights, seed, n_workers, threshold)
        timing = fresh.timing_fork(numeric.session.diverged_step)
        assert not timing.session.numerics
        assert drive(timing, ops) == statuses
        assert timeline(timing) == realized

    def test_forced_divergence_reproduces_a_diverged_run(self):
        args = (("bsp", "asp"), (1, 3), 2, 8, 4.5)
        numeric = make_run(*args)
        ops = [("advance", 2.0), ("resize", 5), ("advance", 1.0)]
        statuses = drive(numeric, ops)
        assert numeric.session.diverged
        step = numeric.session.diverged_step
        unaware = make_run(*args).timing_fork()
        drive(unaware, ops)
        assert not unaware.session.diverged
        assert unaware.session.step > step
        timing = make_run(*args).timing_fork(step)
        assert drive(timing, ops) == statuses
        assert timeline(timing) == timeline(numeric)
        assert timing.completion().diverged_step == step

    def test_fork_of_a_paused_run_projects_its_completion(self):
        run = make_run(("bsp", "ssp", "asp"), (1, 1, 2), 3, 8, None)
        run.run_to_tail()
        run.advance_to(run.now + 1.5)
        run.resize(6)
        projection = run.project()
        exact = run.fork()
        exact.run_to_completion()
        assert projection == exact.completion()
        assert not run.finished  # the projected run stays paused

    def test_a_numerics_free_run_has_no_training_result(self):
        timing = make_run(("asp",), (1,), 0, 4, None).timing_fork()
        timing.run_to_completion()
        with pytest.raises(ConfigurationError, match="numerics-free"):
            timing.result()


class TestFleetProjections:
    """rush under best-fit at the perf ledger's ``fleet_preempt`` size."""

    CONFIG = FleetConfig(
        scenario="rush",
        scheduler="best-fit",
        sync_policy="sync-switch",
        seed=0,
        scale=0.002,
        n_jobs=3,
    )

    def test_no_gradient_or_evaluation_inside_a_projection(self, monkeypatch):
        calls = {"projections": 0, "inside": 0, "outside": 0}
        inside = []
        project = ElasticTrainingRun.project

        def projecting(self, diverges_at=None):
            calls["projections"] += 1
            inside.append(True)
            try:
                return project(self, diverges_at)
            finally:
                inside.pop()

        monkeypatch.setattr(ElasticTrainingRun, "project", projecting)
        for name in ("loss_and_grad", "loss_and_grad_batch", "evaluate"):
            original = getattr(ResidualMLPClassifier, name)

            def counted(*args, _original=original, **kwargs):
                calls["inside" if inside else "outside"] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(ResidualMLPClassifier, name, counted)
        summary = simulate_fleet(self.CONFIG)
        assert summary.preemptions > 0
        assert calls["projections"] > summary.n_jobs
        assert calls["inside"] == 0
        assert calls["outside"] > 0

    def test_every_gradient_step_is_a_delivered_step(self, monkeypatch):
        executed = {True: 0, False: 0}
        run_segment = DistributedTrainer.run_segment

        def counting(self, session, *args, **kwargs):
            start = session.step
            try:
                return run_segment(self, session, *args, **kwargs)
            finally:
                executed[session.numerics] += session.step - start

        monkeypatch.setattr(DistributedTrainer, "run_segment", counting)
        summary = simulate_fleet(self.CONFIG)
        assert summary.preemptions > 0 and summary.diverged_jobs == 0
        delivered = sum(job.completed_steps for job in summary.jobs)
        assert executed[True] == delivered
        assert executed[False] > 0
