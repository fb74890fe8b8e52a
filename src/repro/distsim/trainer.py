"""The distributed trainer: executes a training plan on the simulator.

This is the substrate equivalent of a TensorFlow training job plus the
parts of Sync-Switch's runtime that live next to the framework: it
sequences protocol segments, charges the calibrated switch overhead
(Section V, Table III) at every protocol switch, detects divergence,
and assembles the final :class:`~repro.distsim.result.TrainingResult`.

Policy *decisions* (which plan, when to react to stragglers) live in
:mod:`repro.core`; this module only executes them.
"""

from __future__ import annotations

from repro.distsim.cluster import Cluster, ClusterSpec
from repro.distsim.engines import is_synchronous, make_engine
from repro.distsim.engines.base import StopCondition, TrainingSession
from repro.distsim.job import JobConfig, Segment, TrainingPlan
from repro.distsim.numerics_free import NumericsFreeSession
from repro.distsim.overheads import ProvisioningModel
from repro.distsim.stragglers import StragglerSchedule, ambient_contention
from repro.distsim.result import TrainingResult
from repro.distsim.timing import timing_for
from repro.errors import DivergenceError
from repro.mlcore.datasets import make_dataset
from repro.mlcore.models import make_model
from repro.obs.tracer import NULL_TRACER
from repro.rng import child_rng

__all__ = ["DistributedTrainer", "JobConfig", "Segment", "TrainingPlan"]

#: Ambient cloud-noise defaults (see stragglers.ambient_contention):
#: short contention bursts that slow a worker's compute 4x.  These are
#: the physical source of bursty gradient staleness in ASP.
AMBIENT_MEAN_INTERVAL = 60.0
AMBIENT_MEAN_DURATION = 6.0
AMBIENT_SLOW_FACTOR = 4.0


class DistributedTrainer:
    """Runs :class:`TrainingPlan` objects for one job on one cluster."""

    def __init__(
        self,
        job: JobConfig,
        cluster: ClusterSpec | Cluster,
        stragglers: StragglerSchedule | None = None,
        ambient_noise: bool = True,
        provisioning: ProvisioningModel | None = None,
        tracer=None,
        numerics: bool = True,
    ):
        self.job = job
        self.cluster = cluster if isinstance(cluster, Cluster) else Cluster(cluster)
        self.provisioning = provisioning or ProvisioningModel(parallel=True)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # A timing-only trainer (``numerics=False``) builds neither:
        # its sessions are numerics-free.
        self.model = make_model(job.model) if numerics else None
        self.dataset = make_dataset(job.dataset) if numerics else None
        self.timing = timing_for(job.model, self.cluster.spec.gpu)

        schedule = stragglers or StragglerSchedule()
        # Kept separately so elastic re-simulation can re-slice the
        # external (fleet-contention) part of the schedule mid-run and
        # re-merge it with the job's own unchanged ambient noise.
        self.ambient: StragglerSchedule | None = None
        if ambient_noise:
            horizon = self._time_horizon()
            self.ambient = ambient_contention(
                self.cluster.spec.n_workers,
                horizon,
                child_rng(job.seed, "ambient"),
                mean_interval=AMBIENT_MEAN_INTERVAL,
                mean_duration=AMBIENT_MEAN_DURATION,
                slow_factor=AMBIENT_SLOW_FACTOR,
            )
            schedule = schedule.merged_with(self.ambient)
        self.stragglers = schedule

    def new_session(self) -> TrainingSession:
        """A fresh session (parameters re-initialised from the job seed);
        a :class:`NumericsFreeSession` on a timing-only trainer."""
        timing, cluster, stragglers = self.timing, self.cluster, self.stragglers
        if self.model is None:
            session = NumericsFreeSession(self.job, timing, cluster, stragglers)
        else:
            session = TrainingSession(
                self.job, self.model, self.dataset, timing, cluster, stragglers
            )
        session.tracer = self.tracer
        return session

    def run(self, plan: TrainingPlan) -> TrainingResult:
        """Execute ``plan`` to completion (or divergence) in a fresh
        session, charging a switch whenever a segment's protocol
        differs from the last executed one.

        The plan runner,
        :class:`~repro.core.runtime.elastic.ElasticTrainingRun`, builds
        the Sync-Switch job on :meth:`run_segment` instead.
        """
        session = self.new_session()
        previous = None
        try:
            targets = plan.step_targets(self.job.total_steps)
            for segment, target in zip(plan.segments, targets):
                steps = target - session.step
                if steps <= 0:
                    continue
                if previous is not None and previous != segment.protocol:
                    seconds = self.provisioning.switch_time(
                        self.cluster.spec.n_workers
                    )
                    self.charge_overhead(session, "switch", seconds)
                previous = segment.protocol
                self.run_segment(session, segment, steps)
        except DivergenceError:
            pass
        return self.finalize(session, plan)

    def run_segment(
        self,
        session: TrainingSession,
        segment: Segment,
        steps: int,
        stop: StopCondition | None = None,
    ) -> str:
        """Run one protocol segment for up to ``steps`` steps.

        Charges nothing: the caller pays any protocol switch first.
        """
        tracer = self.tracer
        cursor = len(session.telemetry.worker_durations) if tracer.enabled else 0
        session.telemetry.open_segment(
            segment.protocol, session.step, session.clock.now
        )
        engine = make_engine(segment.protocol)
        try:
            reason = engine.run(session, steps, segment.options, stop)
        finally:
            session.telemetry.close_segment(session.step, session.clock.now)
            if tracer.enabled:
                self._emit_segment(session, tracer, cursor)
        return reason

    def _emit_segment(self, session: TrainingSession, tracer, cursor: int) -> None:
        """Trace the segment just closed (and, at update detail, each
        worker update inside it, reconstructed from the telemetry
        worker-duration log starting at ``cursor``)."""
        record = session.telemetry.segments[-1]
        if tracer.wants("job"):
            tracer.span(
                record.protocol,
                "segment",
                record.start_time,
                record.duration,
                tid=1,
                args={
                    "start_step": record.start_step,
                    "end_step": record.end_step,
                },
            )
        if tracer.wants("update"):
            # Synchronous engines log (round_start, worker, duration);
            # asynchronous engines log (apply_end, worker, duration).
            synchronous = is_synchronous(record.protocol)
            name = "barrier" if synchronous else "push"
            entries = session.telemetry.worker_durations
            for index in range(cursor, len(entries)):
                t, worker, duration = entries[index]
                start = t if synchronous else t - duration
                tracer.span(name, name, start, duration, tid=3 + int(worker))

    def charge_overhead(
        self,
        session: TrainingSession,
        kind: str,
        seconds: float,
        args: dict | None = None,
    ) -> None:
        """Charge ``seconds`` of framework overhead (``"switch"``,
        ``"evict"``, ``"restore"``) to the job's clock; ``args`` go on
        its trace span."""
        session.clock.advance(seconds)
        session.telemetry.record_overhead(session.clock.now, kind, seconds)
        if self.tracer.wants("job"):
            self.tracer.span(
                kind, "overhead", session.clock.now - seconds, seconds, tid=1, args=args
            )

    def finalize(
        self, session: TrainingSession, plan: TrainingPlan
    ) -> TrainingResult:
        """Assemble the immutable result from session telemetry."""
        if not session.diverged and session.telemetry.eval_log:
            # Record a final evaluation so the curve covers the full run.
            last_step = session.telemetry.eval_log[-1][0]
            if last_step < session.step:
                session.evaluate_now()
        telemetry = session.telemetry
        tracker = session.tracker
        segment_summary = tuple(
            {
                "protocol": record.protocol,
                "start_step": record.start_step,
                "end_step": record.end_step,
                "duration": record.duration,
                "images": record.steps * self.job.batch_size,
            }
            for record in telemetry.segments
        )
        return TrainingResult(
            plan=plan.describe(),
            seed=self.job.seed,
            n_workers=self.cluster.spec.n_workers,
            total_steps=self.job.total_steps,
            completed_steps=session.step,
            total_time=session.clock.now,
            diverged=session.diverged,
            diverged_step=session.diverged_step,
            converged=tracker.converged,
            converged_accuracy=tracker.converged_accuracy,
            reported_accuracy=(
                None if session.diverged else tracker.reported_accuracy()
            ),
            best_accuracy=tracker.best_accuracy,
            final_loss=session.last_loss,
            eval_steps=tuple(step for step, _, _ in telemetry.eval_log),
            eval_times=tuple(time for _, time, _ in telemetry.eval_log),
            eval_accuracies=tuple(acc for _, _, acc in telemetry.eval_log),
            loss_steps=tuple(step for step, _, _ in telemetry.loss_log),
            loss_values=tuple(loss for _, _, loss in telemetry.loss_log),
            segment_summary=segment_summary,
            staleness=telemetry.staleness_summary(),
            switch_count=telemetry.switch_count,
            total_overhead=telemetry.total_overhead,
            images_processed=telemetry.images_processed,
        )

    def _time_horizon(self) -> float:
        """Generous upper bound on simulated run time (for noise horizon)."""
        n = self.cluster.spec.n_workers
        batch = self.job.batch_size
        worst_round = (
            self.timing.mean_compute_time(batch) * AMBIENT_SLOW_FACTOR
            + self.timing.sync_overhead(n)
        )
        return self.job.total_steps / n * worst_round * 1.5 + 600.0
