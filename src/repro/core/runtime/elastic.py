"""Elastic, resumable execution of one Sync-Switch training job.

The fleet simulator used to train every admitted job *once* at
admission and model preemption by linearly stretching the ASP tail by
``n / (n - k)``.  That is wrong in exactly the way the paper says it
is wrong (Section V): changing the worker set changes ASP dynamics —
per-push staleness, per-worker throughput, divergence behaviour — so a
preempted job's accuracy and telemetry cannot be those of the
unpreempted run.

:class:`ElasticTrainingRun` replaces that model with event-driven
re-simulation.  It executes the same two-phase plan as
:class:`~repro.core.runtime.controller.SyncSwitchController` (BSP
phase, checkpoint -> actuate -> restore switch, asynchronous tail) but
exposes the execution as a *resumable* state machine:

* :meth:`run_to_tail` runs the precise phase and the protocol switch,
  then pauses at the asynchronous-tail boundary.  The paused run holds
  the unchanged BSP span: no allocation change trains it again.
* :meth:`advance_to` resumes training until the simulated clock
  reaches a target instant, pausing at the first update boundary at or
  after it (engines only observe stop conditions between updates, so a
  pause is always a consistent event boundary with no in-flight
  state — the batcher rewinds eager draws, snapshots are released).
* :meth:`resize` elastically shrinks or regrows the active worker set
  at the pause instant, mirroring the real system's
  checkpoint -> reconfigure -> restart flow through
  :class:`~repro.core.runtime.checkpoint.CheckpointStore` and charging
  the calibrated evict/restore reconfiguration overhead.  The external
  contention schedule may be re-sliced at the same instant (the job's
  own ambient noise is preserved and re-merged).
* :meth:`project` predicts the completion on the current worker set
  from a :meth:`timing_fork` — a copy with null numerics whose clock is
  bit-identical to this run's (the timing model alone decides it) — and
  leaves this run paused for the next allocation change.  :meth:`fork`
  is the exact copy with numerics.

A run that is never paused or resized is bit-identical to the
controller's one-shot execution — pinned per run by
``tests/core/test_elastic_run.py::TestOneShotParity`` and per fleet
job by the one-shot oracle in the fleet suite
(``TestGoldenParity::test_unresized_jobs_match_one_shot_controller``).
"""

from __future__ import annotations

import copy
import math
from typing import NamedTuple

from repro.core.policies.manager import PolicyManager
from repro.core.runtime.checkpoint import CheckpointStore
from repro.core.runtime.switching import ProtocolSwitcher
from repro.distsim.cluster import Cluster, ClusterSpec
from repro.distsim.engines import is_synchronous
from repro.distsim.job import JobConfig
from repro.distsim.numerics_free import numerics_free
from repro.distsim.stragglers import StragglerSchedule
from repro.distsim.result import TrainingResult
from repro.distsim.trainer import DistributedTrainer
from repro.errors import ConfigurationError, DivergenceError
from repro.obs.tracer import NULL_TRACER

__all__ = ["Completion", "ElasticTrainingRun"]

#: Stop reason used for time-based pauses.
_PAUSE = "elastic-pause"


class Completion(NamedTuple):
    """When and how a run ends: what a completion projection predicts
    and a finished run realizes (``segments`` holds one
    ``(protocol, duration)`` pair per telemetry segment record)."""

    total_time: float
    completed_steps: int
    diverged: bool
    diverged_step: int | None
    segments: tuple[tuple[str, float], ...]


class ElasticTrainingRun:
    """Resumable controller-equivalent execution of one training job.

    Supports the offline policy set only (timing + configuration):
    online straggler policies react to mid-segment telemetry, which
    no pause boundary preserves, so they stay on the one-shot
    :class:`SyncSwitchController` path.
    """

    def __init__(
        self,
        job: JobConfig,
        cluster_spec: ClusterSpec,
        policies: PolicyManager,
        stragglers: StragglerSchedule | None = None,
        ambient_noise: bool = True,
        overhead_time_scale: float = 1.0,
        overhead_bandwidth: float = 1.0,
        tracer=None,
    ):
        if policies.straggler is not None and policies.straggler.reacts_online():
            raise ConfigurationError(
                "elastic re-simulation does not support online straggler "
                "policies; use SyncSwitchController for those runs"
            )
        self.job = job
        self.cluster_spec = cluster_spec
        self.policies = policies
        self.cluster = Cluster(cluster_spec)
        self.switcher = ProtocolSwitcher(
            cluster_spec.n_workers,
            time_scale=overhead_time_scale,
            bandwidth_factor=overhead_bandwidth,
        )
        self.trainer = DistributedTrainer(
            job,
            self.cluster,
            stragglers=stragglers,
            ambient_noise=ambient_noise,
            provisioning=self.switcher.provisioning,
            tracer=tracer,
        )
        self.session = self.trainer.new_session()
        self.plan = policies.build_plan(job, cluster_spec.n_workers)
        self._targets = self.plan.step_targets(job.total_steps)
        self._index = 0
        self._opened = False
        self._switch_paid = False
        self._finished = False

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """Whether the run completed (or diverged)."""
        return self._finished

    @property
    def now(self) -> float:
        """Current simulated time of the (possibly paused) run."""
        return self.session.clock.now

    @property
    def n_active(self) -> int:
        """Workers currently participating in training."""
        return self.cluster.n_active

    @property
    def has_elastic_tail(self) -> bool:
        """Whether the plan ends in a preemptible asynchronous phase."""
        return not is_synchronous(self.plan.segments[-1].protocol)

    @property
    def _tail_index(self) -> int:
        """Index of the first asynchronous (preemptible) segment.

        Only meaningful when :attr:`has_elastic_tail` — monotone
        schedules never interleave a barrier protocol back in after an
        asynchronous one, so everything from this segment on is the
        elastic span.
        """
        for index, segment in enumerate(self.plan.segments):
            if not is_synchronous(segment.protocol):
                return index
        return len(self.plan.segments)

    # ------------------------------------------------------------------
    # resumable execution
    # ------------------------------------------------------------------
    def run_to_tail(self) -> str:
        """Run the precise phase and the switch; pause at the tail start.

        Returns ``"paused"`` with the run held at the instant the
        asynchronous tail would open (the fleet's preemptible span), or
        ``"finished"`` when the plan has no elastic tail (all-BSP) or
        training diverged inside the precise phase.  The paused state
        holds the BSP span: training resumes from here and never runs
        it again.
        """
        if self._finished:
            return "finished"
        if not self.has_elastic_tail:
            return self.advance_to(math.inf)
        tail = self._tail_index
        if tail == 0:
            # The whole run is the elastic tail; nothing precise to cache.
            return "paused"
        try:
            while not self._finished and (
                self._index < tail or not self._switch_paid
            ):
                self._advance_stage(None, math.inf)
        except DivergenceError:
            self._finished = True
            return "finished"
        return "paused"

    def advance_to(self, until: float) -> str:
        """Resume training until the clock reaches ``until``.

        Pauses at the first update boundary at or after ``until``
        (``"paused"``); runs to completion when ``until`` is infinite
        or the step budget is reached first (``"finished"``).
        Divergence counts as completion, exactly as on the controller
        path.
        """
        if self._finished:
            return "finished"
        session = self.session
        unbounded = math.isinf(until)
        stop = None
        if not unbounded:
            def stop(current) -> str | None:
                return _PAUSE if current.clock.now >= until else None
        try:
            while True:
                if not unbounded and session.clock.now >= until:
                    return "paused"
                if not self._advance_stage(stop, until):
                    return "paused"
                if self._finished:
                    return "finished"
        except DivergenceError:
            self._finished = True
            return "finished"

    def run_to_completion(self) -> str:
        """Resume and run the remaining plan to the end."""
        return self.advance_to(math.inf)

    def _advance_stage(self, stop, until: float) -> bool:
        """Execute (part of) the current segment's stage.

        Returns False when a stop condition paused mid-stage; True when
        the stage completed (a switch was paid, the segment cursor
        advanced, or the run finished).  Mirrors
        ``SyncSwitchController._run_switching`` / ``_run_static``
        exactly: the first segment always opens (even for a zero-step
        budget), every later segment pays its switch unconditionally
        but only trains when steps remain.
        """
        session = self.session
        segments = self.plan.segments
        index = self._index
        segment = segments[index]
        if index > 0 and not self._switch_paid:
            if not math.isinf(until) and session.clock.now >= until:
                # Pause *before* paying the switch: the overhead
                # belongs to the instant the switch actually runs.
                return False
            self.switcher.switch(session, segment)
            self._switch_paid = True
            return True
        target = self._targets[index]
        if (index == 0 and not self._opened) or session.step < target:
            self._opened = True
            self.trainer.run_segment(
                session,
                segment,
                target - session.step,
                stop=stop,
                charge_switch=False,
            )
            if session.step < target:
                return False
        if index == len(segments) - 1:
            self._finished = True
            return True
        self._index += 1
        self._switch_paid = False
        return True

    # ------------------------------------------------------------------
    # elastic resizing
    # ------------------------------------------------------------------
    def resize(
        self,
        n_active: int,
        contention: StragglerSchedule | None = None,
    ) -> None:
        """Change the active worker set at the current pause instant.

        Shrinks evict the highest-index active workers and regrowth
        restores the lowest-index evicted ones — matching the fleet's
        slot order, where local worker ``i`` is the ``i``-th physical
        allocation.  ``contention`` replaces the external slice of the
        straggler schedule from this instant on (re-sliced by the
        caller for the new physical mapping); the job's own ambient
        noise is re-merged unchanged.

        Models the real reconfiguration: checkpoint, resize + re-slice,
        restart from the checkpoint, with the calibrated evict/restore
        overhead charged to the job's clock.
        """
        if self._finished:
            raise ConfigurationError("cannot resize a finished run")
        if not 1 <= n_active <= self.cluster_spec.n_workers:
            raise ConfigurationError(
                f"cannot resize to {n_active} active workers "
                f"(provisioned: {self.cluster_spec.n_workers})"
            )
        current = self.cluster.n_active
        if n_active == current and contention is None:
            return
        checkpoints = self.switcher.checkpoints
        checkpoint = checkpoints.save(self.session, tag=f"resize-{n_active}")
        while self.cluster.n_active > n_active:
            self.cluster.evict(max(self.cluster.active_workers))
        while self.cluster.n_active < n_active:
            evicted = set(self.cluster.all_workers) - set(
                self.cluster.active_workers
            )
            self.cluster.restore(min(evicted))
        if contention is not None:
            self.set_contention(contention)
        if n_active != current:
            self.trainer.charge_resize_overhead(
                self.session, "evict" if n_active < current else "restore"
            )
        checkpoints.restore(self.session, checkpoint)

    def set_contention(self, contention: StragglerSchedule | None) -> None:
        """Replace the external straggler slice (ambient re-merged)."""
        schedule = contention or StragglerSchedule()
        if self.trainer.ambient is not None:
            schedule = schedule.merged_with(self.trainer.ambient)
        self.session.stragglers = schedule

    def set_tracer(self, tracer) -> None:
        """Attach a tracer to this run (and its live session).

        Used by the fleet to trace a tail it trains at admission into
        a buffer, emitted when the job completes.
        """
        self.trainer.tracer = tracer
        self.session.tracer = tracer

    # ------------------------------------------------------------------
    # copies, projections and results
    # ------------------------------------------------------------------
    def _copy_memo(self) -> dict[int, object]:
        """Deep-copy memo sharing the immutable substrate (job, model,
        dataset, timing, straggler schedules, policies, plan) and
        starting the copy untraced with an empty checkpoint store."""
        memo: dict[int, object] = {}
        for shared in (
            self.job,
            self.policies,
            self.plan,
            self.trainer.model,
            self.trainer.dataset,
            self.trainer.timing,
        ):
            memo[id(shared)] = shared
        for schedule in (
            self.trainer.stragglers,
            self.trainer.ambient,
            self.session.stragglers,
        ):
            if schedule is not None:
                memo[id(schedule)] = schedule
        # Past checkpoints hold full parameter snapshots a copy never
        # restores; it starts with an empty store instead of
        # duplicating up to keep_last of them.
        checkpoints = self.switcher.checkpoints
        memo[id(checkpoints)] = CheckpointStore(keep_last=checkpoints.keep_last)
        # Copies are speculative: they start untraced.
        memo[id(self.trainer.tracer)] = NULL_TRACER
        memo[id(self.session.tracer)] = NULL_TRACER
        return memo

    def fork(self) -> "ElasticTrainingRun":
        """Exact independent copy.

        Mutable state — session, cluster, checkpoints, stage cursor —
        is deep-copied at its exact position; the immutable substrate
        is shared.  The copy continues bit-identically to what this run
        would have done.
        """
        memo = self._copy_memo()
        # The parameter server's spare push targets are written before
        # they are read, so the copy allocates its own on demand
        # instead of duplicating up to n_workers vectors.
        memo[id(self.session.ps._free)] = []
        return copy.deepcopy(self, memo)

    def timing_fork(
        self, diverges_at: int | None = None
    ) -> "ElasticTrainingRun":
        """A numerics-free copy: this run's clock without its numbers.

        The copy's session is a
        :class:`~repro.distsim.numerics_free.NumericsFreeSession`: it
        advances, pauses, resizes and switches exactly like this run —
        same clock, steps, segment log and worker-duration log, bit for
        bit — but computes no gradient, loss or evaluation.  It cannot
        see a divergence: ``diverges_at`` is the step at which the
        numeric run is known to diverge, if one is.
        """
        memo = self._copy_memo()
        numerics_free(self.session, memo, diverges_at)
        return copy.deepcopy(self, memo)

    def project(self, diverges_at: int | None = None) -> Completion:
        """How this run would complete on its current worker set.

        Runs a :meth:`timing_fork` to the end; this run stays where it
        is, for the next allocation change.
        """
        projection = self.timing_fork(diverges_at)
        projection.run_to_completion()
        return projection.completion()

    def completion(self) -> Completion:
        """How this finished run ended, in the terms a projection
        predicts."""
        self._require_finished()
        session = self.session
        return Completion(
            total_time=session.clock.now,
            completed_steps=session.step,
            diverged=session.diverged,
            diverged_step=session.diverged_step,
            segments=tuple(
                (record.protocol, record.duration)
                for record in session.telemetry.segments
            ),
        )

    def result(self) -> TrainingResult:
        """Finalized result of a completed run.

        Like the controller, finalization may record one trailing
        evaluation — call exactly once, after completion.
        """
        self._require_finished()
        if not self.session.numerics:
            raise ConfigurationError(
                "a numerics-free run has no training result; "
                "read its completion() instead"
            )
        return self.trainer.finalize(self.session, self.plan)

    def _require_finished(self) -> None:
        if not self._finished:
            raise ConfigurationError(
                "run is still in progress; advance it to completion first"
            )
