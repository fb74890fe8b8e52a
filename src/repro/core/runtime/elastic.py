"""The plan runner: one Sync-Switch training job, resumable.

:class:`ElasticTrainingRun` is the only code that walks a policy plan.
It executes the plan segment by segment, entering every later segment
through a protocol switch.  A switch is what the paper measures of its
checkpoint -> actuate -> restart mechanism (Section V): the calibrated
Table III cost from :class:`~repro.distsim.overheads.ProvisioningModel`,
charged to the job's clock.  The execution is a *resumable* state
machine:

* :meth:`run_to_tail` runs the precise phase and the protocol switch,
  then pauses at the asynchronous-tail boundary.  The paused run holds
  the unchanged BSP span: no allocation change trains it again.
* :meth:`advance_to` resumes training until the simulated clock
  reaches a target instant, pausing at the first update boundary at or
  after it (engines only observe stop conditions between updates, so a
  pause is always a consistent event boundary with no in-flight
  state — the batcher rewinds eager draws, snapshots are released).
* :meth:`resize` elastically shrinks or regrows the active worker set
  at the pause instant, charging the calibrated evict/restore
  reconfiguration overhead to the job's clock.  The external
  contention schedule may be re-sliced at the same instant (the job's
  own ambient noise is preserved and re-merged).
* :meth:`project` predicts the completion on the current worker set
  from a :meth:`fork` — the exact copy — run to the end, and leaves
  this run paused for the next allocation change.

:meth:`branch_opening` trains one BSP opening for several plans: up
to its switch step, every plan that opens with the same BSP segment
trains the same run bit for bit, so one run trains the longest opening
and, from inside its round loop, forks a run per shorter plan at that
plan's switch step.  Each branch then pays its own switch and trains
its own tail (``tests/core/test_branch_opening.py``).

A run built with ``numerics=False`` is timing-only by construction: no
model, dataset or parameter server, and a
:class:`~repro.distsim.numerics_free.NumericsFreeSession` whose clock
is bit-identical to a numeric run's (the timing model alone decides
it), at a small fraction of the cost.  The fleet drives each resizable
job with one (its clock run) and projects from its forks; its cells
skip the evaluations no record reads (``skip_unread_evals``).

The online straggler policies (Section IV-B2) act inside stage 0, the
precise phase, at update boundaries raised by the profiler/detector
feed: the greedy policy's interlude is an unplanned segment switch,
the elastic policy's eviction a resize.  They read mid-segment
telemetry that no pause boundary preserves, so stage 0 of an online
run ignores stop conditions: :meth:`run_to_tail` runs it whole (and
pauses at the tail like any other run), while a finite
:meth:`advance_to` that would reach it is rejected.  An online run
paused at its tail and resumed equals the one-shot run
(``tests/core/test_elastic_run.py::TestOnlineTailPause``).

A run that is never paused or resized is bit-identical to the plain
per-segment transcription in ``tests/core/reference_controller.py`` —
pinned per run by ``tests/core/test_elastic_run.py::TestOneShotParity``
and per fleet job by
``TestGoldenParity::test_unresized_jobs_match_one_shot_controller``.
"""

from __future__ import annotations

import copy
import math
from typing import NamedTuple

from repro.core.policies.manager import PolicyManager
from repro.core.policies.straggler import GreedyPolicy, StragglerPolicy
from repro.core.runtime.detector import StragglerDetector
from repro.core.runtime.profiler import ThroughputProfiler
from repro.distsim.cluster import Cluster, ClusterSpec
from repro.distsim.engines import is_synchronous
from repro.distsim.job import JobConfig, Segment
from repro.distsim.overheads import ProvisioningModel
from repro.distsim.stragglers import StragglerSchedule
from repro.distsim.result import TrainingResult
from repro.distsim.trainer import DistributedTrainer
from repro.errors import ConfigurationError, DivergenceError
from repro.obs.tracer import NULL_TRACER

__all__ = ["Completion", "ElasticTrainingRun"]

#: Stop reason used for time-based pauses.
_PAUSE = "elastic-pause"

#: Sliding-window length (updates per worker) of the online policies'
#: throughput profiler.
PROFILER_WINDOW = 5


def _online(policies: PolicyManager) -> bool:
    """Whether ``policies`` react to stragglers during training."""
    straggler = policies.straggler
    return straggler is not None and straggler.reacts_online()


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
    """Resumable execution of one training job under its policy set."""

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
        numerics: bool = True,
        skip_unread_evals: bool = False,
    ):
        self.job = job
        self.cluster_spec = cluster_spec
        self.policies = policies
        self.cluster = Cluster(cluster_spec)
        # What a switch or resize costs: the parallel actuator's
        # calibrated Table III seconds.
        self.provisioning = ProvisioningModel(
            parallel=True,
            time_scale=overhead_time_scale,
            bandwidth_factor=overhead_bandwidth,
        )
        self.trainer = DistributedTrainer(
            job,
            self.cluster,
            stragglers=stragglers,
            ambient_noise=ambient_noise,
            provisioning=self.provisioning,
            tracer=tracer,
            numerics=numerics,
        )
        self.session = self.trainer.new_session()
        if skip_unread_evals:
            self.session.skip_unread_evals()
        self.plan = policies.build_plan(job, cluster_spec.n_workers)
        self._targets = self.plan.step_targets(job.total_steps)
        self._index = 0
        self._opened = False
        self._switch_paid = False
        self._finished = False
        #: Online-policy actions, in order: time, step, kind, details.
        self.interventions: list[dict] = []

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
        ``"finished"`` when the plan has no elastic tail (all-BSP),
        training diverged inside the precise phase, or a greedy
        interlude finished the job inside it.  The paused state
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
        return "finished" if self._finished else "paused"

    def advance_to(self, until: float) -> str:
        """Resume training until the clock reaches ``until``.

        Pauses at the first update boundary at or after ``until``
        (``"paused"``); runs to completion when ``until`` is infinite
        or the step budget is reached first (``"finished"``).
        Divergence counts as completion.
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
        advanced, or the run finished).  The first segment always opens
        (even for a zero-step budget); every later segment pays its
        switch unconditionally but only trains when steps remain.
        An online straggler policy's stage 0 ignores ``stop``, so a
        finite ``until`` that would reach it is rejected.
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
            self._switch(segment)
            self._switch_paid = True
            return True
        target = self._targets[index]
        if index == 0 and not self._opened and _online(self.policies):
            if not math.isinf(until):
                raise ConfigurationError(
                    "a run under an online straggler policy cannot pause "
                    "inside its precise phase: the policy reacts to "
                    "mid-segment telemetry that no pause boundary preserves"
                )
            self._opened = True
            if self._run_online_stage(self.policies.straggler):
                self._finished = True
                return True
        elif (index == 0 and not self._opened) or session.step < target:
            self._opened = True
            self.trainer.run_segment(
                session,
                segment,
                target - session.step,
                stop=stop,
            )
            if session.step < target:
                return False
        if index == len(segments) - 1:
            self._finished = True
            return True
        self._index += 1
        self._switch_paid = False
        return True

    def _switch(self, segment: Segment) -> None:
        """Charge one protocol switch; the caller then runs
        ``segment``'s engine."""
        self.trainer.charge_overhead(
            self.session,
            "switch",
            self.provisioning.switch_time(self.cluster_spec.n_workers),
            {"to": segment.protocol},
        )

    # ------------------------------------------------------------------
    # online straggler policies (stage 0)
    # ------------------------------------------------------------------
    def _run_online_stage(self, policy: StragglerPolicy) -> bool:
        """The precise phase under an online straggler policy.

        Trains the barrier segment while the profiler/detector pipeline
        watches per-worker throughput, and reacts to each detection.
        The budget counts barrier-protocol steps, so the steps of a
        greedy interlude extend the stage; evicted workers are restored
        at its end.  Returns True when the whole job finished inside an
        interlude.
        """
        segments = self.plan.segments
        if (
            len(segments) < 2
            or not is_synchronous(segments[0].protocol)
            or is_synchronous(segments[1].protocol)
        ):
            raise ConfigurationError(
                f"the {policy.name} straggler policy needs a barrier phase "
                f"followed by an asynchronous one; the plan is "
                f"{self.plan.describe()}"
            )
        session = self.session
        precise, fast = segments[0], segments[1]
        budget = self._targets[0]
        profiler = ThroughputProfiler(
            batch_size=self.job.batch_size, window=PROFILER_WINDOW
        )
        detector = StragglerDetector(
            consecutive=policy.detection_windows,
            clear_windows=policy.clear_windows,
        )
        evicted: list[int] = []
        done = 0
        while done < budget:
            start = session.step
            reason = self.trainer.run_segment(
                session,
                precise,
                budget - done,
                stop=self._detection_stop(profiler, detector),
            )
            done += session.step - start
            if reason == "completed" or done >= budget:
                break
            flagged = sorted(detector.flagged)
            if isinstance(policy, GreedyPolicy):
                if self._greedy_interlude(
                    precise, fast, profiler, detector, flagged
                ):
                    return True
            else:
                self._elastic_evict(profiler, detector, flagged, evicted)
        if evicted:
            self.cluster.restore_all()
            self._charge_resize("restore")
            self._log_intervention("elastic-restore", {"workers": sorted(evicted)})
        return False

    def _greedy_interlude(
        self, precise, fast, profiler, detector, flagged
    ) -> bool:
        """Greedy policy: the fast protocol until the cluster is clear."""
        session = self.session
        remaining = self.job.total_steps - session.step
        if remaining <= 0:
            # Already at the step budget: switching protocols now would
            # charge a pointless switch overhead.
            return True
        self._log_intervention("greedy-switch-to-asp", {"flagged": flagged})
        self._switch(fast)
        profiler.reset()
        detector.reset()
        reason = self.trainer.run_segment(
            session,
            fast,
            remaining,
            stop=self._clearance_stop(profiler, detector),
        )
        if reason == "completed":
            return True
        self._log_intervention("greedy-switch-back-to-bsp", {})
        profiler.reset()
        detector.reset()
        # Switch back (second switch of the round trip).
        self._switch(precise)
        return False

    def _elastic_evict(self, profiler, detector, flagged, evicted) -> None:
        """Elastic policy: drop stragglers from the barrier cluster."""
        for worker in flagged:
            if not self.cluster.is_active(worker) or self.cluster.n_active <= 2:
                continue
            self.cluster.evict(worker)
            evicted.append(worker)
            detector.unflag(worker)
            profiler.forget(worker)
            self._charge_resize("evict")
            self._log_intervention("elastic-evict", {"worker": worker})
        detector.reset()

    def _detection_stop(self, profiler, detector):
        """Stop the barrier engine when a straggler is detected."""
        cursor = len(self.session.telemetry.worker_durations)

        def stop(current_session) -> str | None:
            nonlocal cursor
            entries = current_session.telemetry.worker_durations
            while cursor < len(entries):
                _, worker, duration = entries[cursor]
                if duration > 0:
                    profiler.observe(worker, duration)
                cursor += 1
            newly = detector.observe_window(profiler.throughputs())
            if newly:
                return "straggler-detected"
            return None

        return stop

    def _clearance_stop(self, profiler, detector):
        """Stop the greedy interlude when the cluster looks clear again."""
        cursor = len(self.session.telemetry.worker_durations)
        pushes = 0
        window = max(self.cluster.n_active, 1)

        def stop(current_session) -> str | None:
            nonlocal cursor, pushes
            entries = current_session.telemetry.worker_durations
            while cursor < len(entries):
                _, worker, duration = entries[cursor]
                if duration > 0:
                    profiler.observe(worker, duration)
                cursor += 1
                pushes += 1
            if pushes >= window:
                pushes = 0
                detector.observe_window(profiler.throughputs())
                if detector.stable_clear():
                    return "cluster-clear"
            return None

        return stop

    def _log_intervention(self, kind: str, details: dict) -> None:
        session = self.session
        self.interventions.append(
            {
                "time": session.clock.now,
                "step": session.step,
                "kind": kind,
                **details,
            }
        )
        tracer = self.trainer.tracer
        if tracer.wants("job"):
            tracer.instant(
                kind,
                "intervention",
                session.clock.now,
                tid=1,
                args={"step": session.step, **details},
            )

    def _charge_resize(self, kind: str) -> None:
        """Charge one elastic ``"evict"`` or ``"restore"`` reconfiguration."""
        n_workers = self.cluster_spec.n_workers
        seconds = (
            self.provisioning.evict_time(n_workers)
            if kind == "evict"
            else self.provisioning.restore_time(n_workers)
        )
        self.trainer.charge_overhead(self.session, kind, seconds)

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

        The reconfiguration is its calibrated evict/restore overhead,
        charged to the job's clock; parameters, optimizer state and the
        step counter carry over unchanged.
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
            self._charge_resize("evict" if n_active < current else "restore")

    def set_contention(self, contention: StragglerSchedule | None) -> None:
        """Replace the external straggler slice (ambient re-merged)."""
        schedule = contention or StragglerSchedule()
        if self.trainer.ambient is not None:
            schedule = schedule.merged_with(self.trainer.ambient)
        self.session.stragglers = schedule

    # ------------------------------------------------------------------
    # copies, projections and results
    # ------------------------------------------------------------------
    def fork(self) -> "ElasticTrainingRun":
        """Exact independent copy.

        Mutable state — session, cluster, stage cursor — is deep-copied
        at its exact position; the immutable substrate (job, model,
        dataset, timing, provisioning, straggler schedules, policies,
        plan) is shared, and the copy starts untraced.  The copy
        continues bit-identically to what this run would have done; a
        timing-only run's copy is timing-only, and knows the same
        divergence step.
        """
        trainer, session = self.trainer, self.session
        memo: dict[int, object] = {}
        for shared in (
            self.job,
            self.policies,
            self.plan,
            trainer.model,
            trainer.dataset,
            trainer.timing,
            self.provisioning,
            trainer.stragglers,
            trainer.ambient,
            session.stragglers,
        ):
            if shared is not None:
                memo[id(shared)] = shared
        # Copies are speculative: they start untraced.
        memo[id(trainer.tracer)] = NULL_TRACER
        memo[id(session.tracer)] = NULL_TRACER
        if session.numerics:
            # The parameter server's spare push targets are written
            # before they are read, so the copy allocates its own on
            # demand instead of duplicating up to n_workers vectors.
            memo[id(session.ps._free)] = []
        return copy.deepcopy(self, memo)

    def branch_opening(
        self, members: "list[PolicyManager]"
    ) -> "list[ElasticTrainingRun]":
        """Train this run's opening once; one run per member of
        ``members``, branched at that member's switch step.

        Every member's plan must open with this run's opening — a BSP
        segment with equal options — and end it no later than this run
        does; neither side may carry an online straggler policy (its
        stage 0 reads telemetry a branch does not share).  A BSP
        opening is a prefix of every longer one: the same rounds on the
        same parameters, data and jitter draws.  (An OSP opening is
        not: it trims its last super-round to the budget.)

        This run trains the opening through ``run_segment``'s stop
        hook.  After the first round that reaches a member's switch
        step, the hook takes a :meth:`fork` that carries the member's
        policies, plan and step targets and closes the opening's
        telemetry record at that step and instant, as the member's own
        ``run_segment`` would.  The branch waits before its switch;
        this run keeps the one record of its whole opening and stays
        at the opening's end, ready to continue.  If the opening
        diverges, every member not yet branched gets the diverged state
        under its own plan, which is how its own run would end.
        Branches start untraced; returned in ``members`` order.
        """
        if self._opened or self._finished:
            raise ConfigurationError(
                "a run branches its opening before it starts training"
            )
        opening, own_target = self.plan.segments[0], self._targets[0]
        if opening.protocol != "bsp" or _online(self.policies):
            raise ConfigurationError(
                f"only a BSP opening without an online straggler policy "
                f"can be shared; this run's plan is {self.plan.describe()}"
            )
        branches = []
        for policies in members:
            plan = policies.build_plan(self.job, self.cluster_spec.n_workers)
            targets = plan.step_targets(self.job.total_steps)
            first = plan.segments[0]
            if (
                (first.protocol, first.options)
                != (opening.protocol, opening.options)
                or targets[0] > own_target
                or _online(policies)
            ):
                raise ConfigurationError(
                    f"plan {plan.describe()} does not open with a prefix of "
                    f"{self.plan.describe()}"
                )
            branches.append((policies, plan, targets))
        order = sorted(
            range(len(branches)), key=lambda index: branches[index][2][0]
        )
        runs: list = [None] * len(branches)
        taken = 0

        def take(reached: float) -> None:
            """Branch every member whose switch step is ``reached``."""
            nonlocal taken
            while taken < len(order):
                index = order[taken]
                if branches[index][2][0] > reached:
                    return
                runs[index] = self._branch(*branches[index])
                taken += 1

        try:
            take(0)  # members whose opening is empty
            self._advance_stage(lambda session: take(session.step), math.inf)
        except DivergenceError:
            self._finished = True
            take(math.inf)
        return runs

    def _branch(self, policies, plan, targets) -> "ElasticTrainingRun":
        """A fork continuing under ``policies``' plan from this run's
        opening."""
        branch = self.fork()
        branch.policies, branch.plan, branch._targets = policies, plan, targets
        session = branch.session
        # Inside the opening: end its record here, as the member's own
        # run_segment would (a no-op once the record is closed).
        if branch._opened:
            session.telemetry.close_segment(session.step, session.clock.now)
        return branch

    def project(self, diverges_at: int | None = None) -> Completion:
        """How this run would complete on its current worker set.

        Runs a :meth:`fork` to the end; this run stays where it is, for
        the next allocation change.  ``diverges_at`` overrides, for the
        projection of a timing-only run, the step at which its numeric
        counterpart is known to diverge (None: what this run knows).
        """
        projection = self.fork()
        if diverges_at is not None:
            projection.session.diverges_at = diverges_at
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

        Finalization may record one trailing evaluation — call exactly
        once, after completion.
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
