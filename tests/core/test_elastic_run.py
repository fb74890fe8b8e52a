"""Engine-level tests for the resumable :class:`ElasticTrainingRun`.

Covers pause/resume parity with the one-shot job (the plain
per-segment transcription in ``reference_controller.py``, which shares
no code with the runner), and the elastic shrink -> resume -> restore
round-trip at the engine level for both ASP and DSSP tails.
"""

import math

import pytest
from reference_controller import reference_run

from repro.core.policies import (
    ConfigurationPolicy,
    PolicyManager,
    ProtocolPolicy,
    TimingPolicy,
)
from repro.core.policies.straggler import GreedyPolicy
from repro.core.runtime import ElasticTrainingRun
from repro.distsim.cluster import ClusterSpec
from repro.errors import ConfigurationError
from repro.experiments.setups import SETUPS, scaled_job

SCALE = 0.008


def make_policies(fraction: float, second: str = "asp") -> PolicyManager:
    return PolicyManager(
        timing=TimingPolicy(fraction, source="fleet"),
        protocol=ProtocolPolicy(first="bsp", second=second),
        config=ConfigurationPolicy(),
    )


def make_run(fraction=0.0625, second="asp", n_workers=8, seed=11):
    job = scaled_job(SETUPS[1], SCALE, seed)
    return job, ElasticTrainingRun(
        job=job,
        cluster_spec=ClusterSpec(n_workers=n_workers),
        policies=make_policies(fraction, second),
        overhead_time_scale=SCALE,
    )


def controller_result(job, fraction, second="asp", n_workers=8):
    """The one-shot job, from the independent reference."""
    return reference_run(
        job,
        ClusterSpec(n_workers=n_workers),
        make_policies(fraction, second),
        overhead_time_scale=SCALE,
    )


class TestOneShotParity:
    """A never-paused elastic run is bit-identical to the one-shot job."""

    @pytest.mark.parametrize("fraction", [0.0625, 0.0, 1.0])
    def test_run_to_completion_matches_controller(self, fraction):
        job, run = make_run(fraction=fraction)
        assert run.run_to_completion() == "finished"
        assert (
            run.result().to_dict()
            == controller_result(job, fraction).to_dict()
        )

    @pytest.mark.parametrize("fraction", [0.0625, 0.0])
    def test_tail_pause_plus_fork_matches_controller(self, fraction):
        """The fleet admission path: cached BSP span + forked tail."""
        job, run = make_run(fraction=fraction)
        assert run.run_to_tail() == "paused"
        projection = run.fork()
        assert projection.run_to_completion() == "finished"
        assert (
            projection.result().to_dict()
            == controller_result(job, fraction).to_dict()
        )

    def test_all_bsp_plan_has_no_tail(self):
        job, run = make_run(fraction=1.0)
        assert not run.has_elastic_tail
        assert run.run_to_tail() == "finished"
        assert (
            run.result().to_dict() == controller_result(job, 1.0).to_dict()
        )

    def test_fork_does_not_perturb_the_original(self):
        job, run = make_run()
        run.run_to_tail()
        reference = run.fork()
        # Fork twice more and run the copies: the original's own
        # projection must be unaffected by other forks training.
        for _ in range(2):
            scratch = run.fork()
            scratch.run_to_completion()
        projection = run.fork()
        projection.run_to_completion()
        reference.run_to_completion()
        assert projection.result().to_dict() == reference.result().to_dict()


class TestPauseResume:
    def test_advance_pauses_at_update_boundary(self):
        _, run = make_run()
        run.run_to_tail()
        target = run.now + 1.0
        assert run.advance_to(target) == "paused"
        assert run.now >= target
        assert not run.finished

    def test_resume_replays_the_projection_prefix(self):
        """advance_to(t) bit-exactly replays what a fork predicted.

        The live trajectory up to the pause instant must be a prefix of
        the continuous projection — that is what makes the fleet's
        "projection schedules the finish event, live run replays it to
        the next allocation change" protocol consistent.  (Continuing
        *past* a pause is a checkpoint restart — workers re-pull — so
        only the prefix is comparable.)
        """
        _, run = make_run()
        run.run_to_tail()
        projection = run.fork()
        projection.run_to_completion()
        run.advance_to(run.now + 2.0)  # live resume, no resize
        live = run.session.telemetry
        predicted = projection.session.telemetry
        assert len(live.loss_log) > 0
        assert list(live.loss_log) == predicted.loss_log[: len(live.loss_log)]
        assert (
            list(live.worker_durations)
            == predicted.worker_durations[: len(live.worker_durations)]
        )

    def test_resumes_from_identical_state_are_deterministic(self):
        """Two forks of a paused state continue bit-identically."""
        _, run = make_run()
        run.run_to_tail()
        run.advance_to(run.now + 1.0)
        first, second = run.fork(), run.fork()
        first.run_to_completion()
        second.run_to_completion()
        assert first.result().to_dict() == second.result().to_dict()

    def test_result_before_completion_rejected(self):
        _, run = make_run()
        run.run_to_tail()
        with pytest.raises(ConfigurationError):
            run.result()


class TestElasticRoundTrip:
    """Shrink -> resume -> restore round-trips on async tails."""

    @pytest.mark.parametrize("second", ["asp", "dssp"])
    def test_shrink_resume_restore_round_trip(self, second):
        job, run = make_run(second=second)
        assert run.run_to_tail() == "paused"
        run.advance_to(run.now + 0.5)
        run.resize(3)
        assert run.n_active == 3
        run.advance_to(run.now + 0.5)
        run.resize(8)
        assert run.n_active == 8
        assert run.run_to_completion() == "finished"
        result = run.result()
        assert result.completed_steps == job.total_steps
        kinds = [kind for _, kind, _ in run.session.telemetry.overheads]
        assert "evict" in kinds and "restore" in kinds

    @pytest.mark.parametrize("second", ["asp", "dssp"])
    def test_shrink_slows_the_tail(self, second):
        job, shrunk = make_run(second=second, seed=3)
        shrunk.run_to_tail()
        mark = shrunk.now
        shrunk.advance_to(mark + 0.25)
        shrunk.resize(2)
        shrunk.run_to_completion()
        _, full = make_run(second=second, seed=3)
        full.run_to_tail()
        full.advance_to(mark + 0.25)
        full.run_to_completion()
        assert (
            shrunk.result().total_time > full.result().total_time
        ), "losing 6 of 8 workers must lengthen the asynchronous tail"

    def test_resize_validates_bounds(self):
        _, run = make_run()
        run.run_to_tail()
        with pytest.raises(ConfigurationError):
            run.resize(0)
        with pytest.raises(ConfigurationError):
            run.resize(9)

    def test_resize_after_completion_rejected(self):
        _, run = make_run()
        run.run_to_completion()
        with pytest.raises(ConfigurationError):
            run.resize(4)

    def test_online_policies_rejected(self):
        """An online policy reacts to mid-segment telemetry: its run
        cannot pause, but it runs to completion."""
        job = scaled_job(SETUPS[1], SCALE, 0)
        policies = PolicyManager(
            timing=TimingPolicy(0.0625),
            config=ConfigurationPolicy(),
            straggler=GreedyPolicy(),
        )

        def make():
            return ElasticTrainingRun(
                job=job,
                cluster_spec=ClusterSpec(n_workers=4),
                policies=policies,
            )

        with pytest.raises(ConfigurationError, match="cannot pause"):
            make().run_to_tail()
        with pytest.raises(ConfigurationError, match="cannot pause"):
            make().advance_to(1.0)
        run = make()
        assert run.run_to_completion() == "finished"
        assert run.result().completed_steps == job.total_steps

    def test_advance_to_infinity_finishes(self):
        job, run = make_run()
        assert run.advance_to(math.inf) == "finished"
        assert run.finished
        assert run.result().completed_steps == job.total_steps
