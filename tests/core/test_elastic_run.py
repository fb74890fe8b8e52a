"""Engine-level tests for the resumable :class:`ElasticTrainingRun`.

Covers pause/resume parity with the one-shot job (the plain
per-segment transcription in ``reference_controller.py``, which shares
no code with the runner), the elastic shrink -> resume -> restore
round-trip at the engine level for both ASP and DSSP tails, the
Table III cost a switch or resize charges to the clock, the tail
pause of a run under an online straggler policy (equal to its
one-shot run), and metamorphic relations over pause, fork and resize
that read no golden hash (so they also run under
``REPRO_GOLDEN_SKIP``).
"""

import math

import pytest
from reference_controller import reference_run

from repro.core.policies import (
    ConfigurationPolicy,
    PolicyManager,
    ProtocolSchedule,
    TimingPolicy,
)
from repro.core.policies.straggler import ElasticPolicy, GreedyPolicy
from repro.core.runtime import ElasticTrainingRun
from repro.distsim.cluster import ClusterSpec
from repro.distsim.job import JobConfig
from repro.distsim.stragglers import (
    StragglerEvent,
    StragglerSchedule,
    tier_slowdown,
)
from repro.errors import ConfigurationError
from repro.experiments.setups import SETUPS, scaled_job

SCALE = 0.008


def make_policies(fraction: float, second: str = "asp") -> PolicyManager:
    return PolicyManager(
        timing=TimingPolicy(fraction, source="fleet"),
        protocol=ProtocolSchedule(("bsp", second)),
        config=ConfigurationPolicy(),
    )


def make_run(
    fraction=0.0625, second="asp", n_workers=8, seed=11, overhead_time_scale=SCALE
):
    job = scaled_job(SETUPS[1], SCALE, seed)
    return job, ElasticTrainingRun(
        job=job,
        cluster_spec=ClusterSpec(n_workers=n_workers),
        policies=make_policies(fraction, second),
        overhead_time_scale=overhead_time_scale,
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
        "projection schedules the finish event, the cell replays it to
        each allocation change" protocol consistent.  (Continuing
        *past* a pause restarts the engine — workers re-pull — so only
        the prefix is comparable.)
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
        cannot pause inside the precise phase, but it pauses at the
        tail and runs to completion."""
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
            make().advance_to(1.0)
        run = make()
        assert run.run_to_tail() == "paused"
        assert run.run_to_completion() == "finished"
        assert run.result().completed_steps == job.total_steps

    def test_advance_to_infinity_finishes(self):
        job, run = make_run()
        assert run.advance_to(math.inf) == "finished"
        assert run.finished
        assert run.result().completed_steps == job.total_steps


#: Stage-0 slowdowns for the online tail-pause pin: one transient
#: straggler, two workers slowed twice each, and a slow tier that never
#: recovers (the greedy interlude then finishes the job in stage 0).
ONLINE_STRAGGLERS = {
    "transient": lambda: [
        StragglerEvent(worker=3, start=3.0, duration=25.0, extra_latency=0.03)
    ],
    "repeated": lambda: [
        StragglerEvent(worker=worker, start=start, duration=6.0,
                       extra_latency=0.03)
        for worker in (2, 5)
        for start in (2.0, 20.0)
    ],
    "permanent": lambda: [tier_slowdown(3, extra_latency=0.03)],
}


class TestOnlineTailPause:
    """An online run paused at its tail, then resumed, is the one-shot run.

    Nothing the policies read crosses the tail-start pause: stage 0 runs
    whole before it, evicted workers are restored at its end, and the
    intervention log is plain run state.
    """

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", sorted(ONLINE_STRAGGLERS))
    @pytest.mark.parametrize("policy", [GreedyPolicy, ElasticPolicy])
    def test_tail_pause_matches_one_shot(self, policy, kind, seed):
        def make():
            job = JobConfig(
                model="resnet32-sim",
                dataset="cifar10-sim",
                total_steps=640,
                base_lr=0.004,
                eval_every=160,
                loss_log_every=80,
                seed=seed,
            )
            return ElasticTrainingRun(
                job=job,
                cluster_spec=ClusterSpec(n_workers=8),
                policies=PolicyManager(
                    timing=TimingPolicy(0.5), straggler=policy()
                ),
                stragglers=StragglerSchedule(ONLINE_STRAGGLERS[kind]()),
                ambient_noise=False,
            )

        one_shot = make()
        assert one_shot.run_to_completion() == "finished"
        assert one_shot.interventions, "the case must exercise the policy"
        paused = make()
        inside_interlude = policy is GreedyPolicy and kind == "permanent"
        assert paused.run_to_tail() == (
            "finished" if inside_interlude else "paused"
        )
        assert paused.run_to_completion() == "finished"
        assert paused.result().to_dict() == one_shot.result().to_dict()
        assert paused.interventions == one_shot.interventions


class TestReconfigurationCost:
    """A switch or resize is its calibrated Table III cost (parallel
    actuation) charged to the job's clock, and nothing else."""

    @pytest.mark.parametrize("n_workers, table_3", [(8, 36.0), (16, 53.0)])
    def test_switch_charges_its_table_3_cost(self, n_workers, table_3):
        _, run = make_run(n_workers=n_workers)
        assert run.run_to_tail() == "paused"
        [(time, kind, seconds)] = run.session.telemetry.overheads
        assert kind == "switch"
        assert time == run.now
        assert seconds == run.provisioning.switch_time(n_workers)
        assert seconds == pytest.approx(table_3 * SCALE)

    def test_overhead_time_scale_scales_the_switch(self):
        _, run = make_run(overhead_time_scale=0.1)
        run.run_to_completion()
        [(_, kind, seconds)] = run.session.telemetry.overheads
        assert kind == "switch"
        assert seconds == pytest.approx(3.6)

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_single_protocol_plan_charges_no_switch(self, fraction):
        _, run = make_run(fraction=fraction)
        run.run_to_completion()
        assert run.session.telemetry.overheads == []

    def test_resize_charges_evict_and_restore(self):
        """Shrink and regrow each cost half a switch; a resize to the
        current allocation costs nothing."""
        _, run = make_run()
        run.run_to_tail()
        run.advance_to(run.now + 0.5)
        run.resize(3)
        run.resize(3)
        run.advance_to(run.now + 0.5)
        run.resize(8)
        kinds = [kind for _, kind, _ in run.session.telemetry.overheads]
        assert kinds == ["switch", "evict", "restore"]
        [_, evict, restore] = [
            seconds for _, _, seconds in run.session.telemetry.overheads
        ]
        assert evict == run.provisioning.evict_time(8)
        assert restore == run.provisioning.restore_time(8)
        assert evict == pytest.approx(18.0 * SCALE)
        assert restore == pytest.approx(18.0 * SCALE)


def ended(run) -> tuple:
    """Everything a finished run reports: its result and completion."""
    return run.result().to_dict(), run.completion()


def checkpointed_resize(run, n_active) -> None:
    """A resize wrapped in the real system's checkpoint -> restart: the
    parameter server's state and the step counter are saved before the
    reconfiguration and loaded back after it."""
    session = run.session
    state, step = session.ps.state(), session.step
    run.resize(n_active)
    session.ps.load_state(state)
    session.step = step


class TestMetamorphic:
    """Relations between runs that must end bit-identically."""

    @pytest.mark.parametrize("second", ["asp", "ssp"])
    def test_resize_to_current_allocation_is_a_no_op(self, second):
        def drive(resize):
            _, run = make_run(second=second, seed=5)
            assert run.run_to_tail() == "paused"
            run.advance_to(run.now + 0.5)
            run.resize(4)
            assert run.advance_to(run.now + 0.5) == "paused"
            if resize:
                run.resize(run.n_active)
            run.run_to_completion()
            return ended(run)

        assert drive(resize=True) == drive(resize=False)

    @pytest.mark.parametrize("second", ["asp", "ssp"])
    def test_fork_then_advance_equals_advance(self, second):
        _, run = make_run(second=second, seed=6)
        assert run.run_to_tail() == "paused"
        assert run.advance_to(run.now + 0.25) == "paused"
        target = run.now + 0.75
        copy = run.fork()
        copy.advance_to(target)
        copy.run_to_completion()
        run.advance_to(target)
        run.run_to_completion()
        assert ended(copy) == ended(run)

    @pytest.mark.parametrize("second", ["asp", "ssp"])
    def test_checkpoint_round_trip_around_resize_is_a_no_op(self, second):
        """Shrink and regrow with and without a save -> load round trip
        of the parameter server around each resize."""

        def drive(resize):
            _, run = make_run(second=second, seed=7)
            assert run.run_to_tail() == "paused"
            run.advance_to(run.now + 0.5)
            resize(run, 3)
            assert run.advance_to(run.now + 0.5) == "paused"
            resize(run, 8)
            run.run_to_completion()
            return ended(run)

        bare = drive(lambda run, n_active: run.resize(n_active))
        assert drive(checkpointed_resize) == bare
        assert bare[0]["total_overhead"] > 0
