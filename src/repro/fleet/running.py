"""One admitted job's lifecycle: clock, project, resize, cell, record.

When the scheduler can resize a job, :class:`RunningJob` drives it with
a *clock run*: a timing-only
:class:`~repro.core.runtime.elastic.ElasticTrainingRun` (no model,
dataset or parameters) paused at the ASP-tail boundary, advanced and
resized at every allocation change, and projected — forked and run to
the end — to schedule the finish event.  The job's numbers come from
one *cell*: a fresh numeric run that replays every recorded placement
(:meth:`RunningJob.finish`) and must end as the projection said; it
runs at the finish event, or at admission when no resize can happen,
and traces straight onto the fleet timeline through the job's scoped
tracer.  Nothing here knows the event loop: the pool, the contention
schedule and the tracer a method needs are handed in.
"""

from __future__ import annotations

from functools import partial

from repro.core.policies import PolicyManager, ProtocolSchedule, TimingPolicy
from repro.core.runtime import ElasticTrainingRun
from repro.core.runtime.elastic import Completion
from repro.distsim.cluster import ClusterSpec
from repro.distsim.engines import synchronous_protocols
from repro.distsim.result import TrainingResult
from repro.distsim.stragglers import StragglerSchedule
from repro.errors import FleetError
from repro.experiments.setups import SETUPS, scaled_job
from repro.fleet.metrics import JobRecord
from repro.fleet.pool import WorkerPool, job_stragglers
from repro.fleet.workload import JobRequest
from repro.obs.tracer import NULL_TRACER
from repro.rng import child_seed

__all__ = [
    "RunningJob",
    "UnforeseenDivergence",
    "job_record",
    "resliced",
    "training_inputs",
]


class UnforeseenDivergence(Exception):
    """A job's cell diverged where its numerics-free projection could
    not see it coming: the fleet timeline built on that projection is
    void.

    ``key`` names the trajectory the cell had reached when it diverged
    (:attr:`RunningJob.trajectory`, up to the placement it did not
    reach), ``step`` the update at which it diverged.
    """

    def __init__(self, key: tuple, step: int):
        super().__init__(
            f"job {key[0]} diverged at step {step}, after a projection "
            "that could not see it"
        )
        self.key = key
        self.step = step


def job_record(
    request: JobRequest,
    start: float,
    finish: float,
    outcome: str,
    percent: float | None = None,
    **trained,
) -> JobRecord:
    """The fleet record of ``request`` leaving the loop at ``finish``.

    ``percent`` and ``trained`` hold what training added; an SLO
    rejection has none (``start == finish``: the job never trained).
    """
    return JobRecord(
        job_id=request.job_id,
        setup_index=request.setup_index,
        sync_policy=request.sync_policy,
        percent=request.percent if percent is None else percent,
        demand=request.n_workers,
        arrival=request.arrival,
        start=start,
        finish=finish,
        kind=request.kind,
        deadline=request.deadline,
        outcome=outcome,
        tier=request.tier,
        **trained,
    )


class RunningJob:
    """One admitted job's fleet timeline.

    ``resizable`` says whether the scheduler can ever change this
    job's allocation.  When it can, ``clock`` is the job's clock run —
    a timing-only :class:`~repro.core.runtime.elastic.ElasticTrainingRun`
    paused at the last allocation change (initially the ASP-tail start)
    — and ``projection`` predicts its completion on the current worker
    set from a fork of it
    (:meth:`~repro.core.runtime.elastic.ElasticTrainingRun.project`).
    The clock is advanced and resized at every allocation change
    (:meth:`resize`); ``placements`` records each one.  The job's
    numbers come from its *cell* at the finish event (:meth:`finish`):
    a numeric run replaying every placement, which must end as the
    projection that scheduled that event said.  Between events the job
    holds no parameter vector.

    When it cannot — or when the clock run finishes at the tail (no
    elastic tail: all-BSP, or a known divergence inside the BSP phase)
    — the cell runs at admission and ``clock`` is None: the job holds
    its result and nothing of its training state.  Either way the cell
    traces straight into ``tracer``, the job's scoped fleet tracer.

    ``result`` holds the training result once there is one.
    ``diverging`` maps trajectories known to diverge (:attr:`trajectory`)
    to the step at which they do; the clock run of one carries that
    step, and so do its projections.
    """

    def __init__(
        self,
        request: JobRequest,
        workers: tuple[int, ...],
        start: float,
        tracer,
        *,
        percent: float,
        schedule: tuple | None,
        tuned: bool,
        degraded: bool,
        resizable: bool,
        diverging: dict[tuple, int],
        seed: int,
        scale: float,
        pool: WorkerPool,
        contention: StragglerSchedule | None,
    ):
        self.request = request
        self.workers = workers
        self.start = start
        self.percent = percent
        self.tuned = tuned
        self.degraded = degraded
        self.demand = request.n_workers
        self.phase = "bsp"
        self.version = 0
        self.preemptions = 0
        self.restores = 0
        self.tracer = tracer
        self.diverging = diverging
        #: Every (instant, physical workers) the job has trained on.
        self.placements = ((start, workers),)
        job, policies = training_inputs(request, percent, schedule, seed, scale)
        self._plan = tuple(
            (segment.protocol, segment.fraction)
            for segment in policies.build_plan(job, len(workers)).segments
        )
        self._new_run = partial(
            ElasticTrainingRun,
            job=job,
            cluster_spec=ClusterSpec(n_workers=len(workers)),
            policies=policies,
            stragglers=job_stragglers(contention, workers, start),
            overhead_time_scale=scale,
            overhead_bandwidth=pool.bandwidth_for(workers),
            skip_unread_evals=not tracer.wants("job"),
        )
        self.clock: ElasticTrainingRun | None = None
        self.result: TrainingResult | None = None
        if resizable:
            clock = self._new_run(numerics=False)
            clock.session.diverges_at = diverging.get(self.trajectory)
            if clock.run_to_tail() == "paused":
                self.clock = clock
                self.projection = clock.project()
        if self.clock is None:
            cell, _ = self._replay(contention)
            self.result = cell.result()
            self.projection = cell.completion()
        #: Allocation history: one row per allocation-changing event.
        self.allocations: list[dict] = [
            {"time": start, "workers": len(workers), "cause": "admit"}
        ]
        # Phase spans from the training telemetry: everything after the
        # last barrier-synchronized segment is the elastic async tail
        # (for a bsp -> ssp -> asp schedule that is the ssp+asp span).
        tail = 0.0
        synchronous = synchronous_protocols()
        for protocol, duration in reversed(self.projection.segments):
            if protocol in synchronous:
                break
            tail += duration
        total = self.projection.total_time
        self.asp_tail = min(tail, total)
        self.bsp_span = total - self.asp_tail

    @property
    def trajectory(self) -> tuple:
        """What fixes the job's numbers: the job, its plan and every
        placement it has trained on."""
        return (self.request.job_id, self._plan, self.placements)

    def enter_asp(self) -> None:
        """Flip to the (preemptible, elastic) ASP phase."""
        self.phase = "asp"

    def finish_time(self) -> float:
        """Projected completion time at the current allocation.

        The admission-time projection is evaluated phase by phase and
        a re-projection after a resize from the projected total: the
        two float expressions round differently, and the committed
        golden hashes pin each.
        """
        if len(self.allocations) > 1:
            return self.start + self.projection.total_time
        return self.start + self.bsp_span + self.asp_tail

    def resize(
        self,
        new_count: int,
        now: float,
        cause: str,
        pool: WorkerPool,
        contention: StragglerSchedule | None,
        tracer=NULL_TRACER,
    ) -> bool:
        """Change the job's allocation to ``new_count`` workers at ``now``.

        The clock run first advances to this instant, then the workers
        change hands with ``pool`` and the clock is resized on the
        slice of ``contention`` its new physical mapping sees
        (:func:`resliced`).  Each resize charges its own calibrated
        Table III reconfiguration cost to the job's clock — two
        same-pass shrinks pay it twice — but the completion is
        re-projected by the caller, once per scheduling pass
        (:meth:`reproject`).

        Returns whether the resize affected the job's timeline.  The
        pool always changes hands, but when the run completes inside
        the final update interval (a float edge: pauses land on update
        boundaries) the job's training is over and nothing is
        re-projected or recorded — the caller must then not count a
        preemption/restore.
        """
        # Advance before the pool changes hands: the re-slice below
        # must see the *new* physical mapping, these steps the old.
        resumed = self.clock.advance_to(now - self.start)
        current = len(self.workers)
        if new_count < current:
            released = self.workers[new_count:]
            self.workers = self.workers[:new_count]
            pool.release(released)
        elif new_count > current:
            self.workers = self.workers + pool.allocate(new_count - current)
        if resumed != "paused":
            # The workers change hands but the job's timeline — and
            # its pending finish event — stay exactly as projected.
            return False
        self.placements += ((now, self.workers),)
        self.allocations.append(
            {"time": now, "workers": len(self.workers), "cause": cause}
        )
        self.version += 1
        if tracer.enabled:
            tracer.instant(
                cause,
                "preemption",
                now,
                pid=self.request.job_id + 1,
                args={"workers": len(self.workers), "was": current},
            )
        self.clock.resize(
            len(self.workers),
            resliced(contention, self.workers, self.start, now),
        )
        self.clock.session.diverges_at = self.diverging.get(self.trajectory)
        return True

    def reproject(self) -> float:
        """Project the completion afresh; returns the new finish time."""
        self.projection = self.clock.project()
        return self.finish_time()

    def finish(self, contention: StragglerSchedule | None) -> TrainingResult:
        """The job's training result, at its finish event.

        A resizable job's cell runs here, on ``contention`` (the
        fleet's), and must end as the latest projection said.
        """
        if self.clock is not None:
            cell, reached = self._replay(contention)
            self._check(cell.completion(), self.placements[:reached])
            self.result = cell.result()
            self.clock = None
        return self.result

    def _replay(
        self, contention: StragglerSchedule | None
    ) -> tuple[ElasticTrainingRun, int]:
        """The job's cell: a fresh numeric run trained through every
        recorded placement, to completion.

        It runs to the tail, then advances to each later placement's
        instant and resizes there on the re-slice that placement saw,
        then runs to the end, tracing into the job's ``tracer``.
        Returns the run and how many placements it reached — fewer
        than all when it ended (diverged) before a later placement's
        instant.
        """
        cell = self._new_run(tracer=self.tracer)
        cell.run_to_tail()
        for index, (instant, workers) in enumerate(self.placements[1:], 1):
            if cell.advance_to(instant - self.start) != "paused":
                return cell, index
            cell.resize(
                len(workers), resliced(contention, workers, self.start, instant)
            )
        cell.run_to_completion()
        return cell, len(self.placements)

    def _check(self, realized: Completion, placements: tuple) -> None:
        """The cell ends as projected, or the timeline is void.

        Only a divergence can part the two — the clock is the timing
        model's alone — so any other difference is a defect, raised as
        one.  A divergence is keyed by the ``placements`` the cell had
        reached when it diverged.
        """
        projected = self.projection
        if realized == projected:
            return
        if realized.diverged and not projected.diverged:
            raise UnforeseenDivergence(
                (self.request.job_id, self._plan, placements),
                realized.diverged_step,
            )
        raise FleetError(
            f"job {self.request.job_id}: the cell ended at "
            f"t={realized.total_time!r} after {realized.completed_steps} "
            f"steps (diverged: {realized.diverged}); its projection said "
            f"t={projected.total_time!r} after {projected.completed_steps} "
            f"(diverged: {projected.diverged})"
        )

    def record(self, now: float) -> JobRecord:
        """The job's fleet record, completing at ``now``."""
        result = self.result
        return job_record(
            self.request,
            self.start,
            now,
            "completed",
            self.percent,
            preemptions=self.preemptions,
            restores=self.restores,
            accuracy=result.reported_accuracy,
            diverged=result.diverged,
            completed_steps=result.completed_steps,
            images=result.images_processed,
            tuned=self.tuned,
            degraded=self.degraded,
            allocations=tuple(self.allocations),
            staleness=dict(result.staleness),
        )

    def emit_spans(self, tracer, record: JobRecord) -> None:
        """Lifecycle spans of the job completed as ``record``: queue
        wait, the job itself, its BSP/ASP phases, and — at job detail
        — one span per allocation segment."""
        pid = record.job_id + 1
        start, now = record.start, record.finish
        cat = "search" if record.kind == "search-trial" else "job"
        tracer.span(
            f"job-{record.job_id}",
            cat,
            start,
            record.service_time,
            pid=pid,
            tid=0,
            args={
                "sync_policy": record.sync_policy,
                "accuracy": record.accuracy,
                "diverged": record.diverged,
                "preemptions": record.preemptions,
                "restores": record.restores,
                "tuned": record.tuned,
                "degraded": record.degraded,
            },
        )
        if start > record.arrival:
            tracer.span(
                "queued", "queue", record.arrival, record.queue_delay, pid=pid, tid=0
            )
        bsp_span = min(self.bsp_span, record.service_time)
        if bsp_span > 0.0:
            tracer.span("bsp-phase", "phase", start, bsp_span, pid=pid, tid=0)
        tail_start = start + bsp_span
        if now > tail_start:
            tracer.span(
                "async-tail", "phase", tail_start, now - tail_start, pid=pid, tid=0
            )
        if tracer.wants("job"):
            for segment in record.allocation_segments():
                tracer.span(
                    f"{segment['workers']}w",
                    "alloc",
                    segment["start"],
                    segment["end"] - segment["start"],
                    pid=pid,
                    tid=2,
                    args={"cause": segment["cause"]},
                )


def resliced(
    contention: StragglerSchedule | None,
    workers: tuple[int, ...],
    start: float,
    now: float,
) -> StragglerSchedule | None:
    """The contention slice a job started at ``start`` sees from a
    placement on ``workers`` at ``now`` on.

    An *empty* re-slice (no events survive the instant) must still
    replace the stale slice of the previous physical mapping; None
    means "keep" to a resize, which is only right when contention is
    off.
    """
    sliced = job_stragglers(contention, workers, start, active_after=now)
    if sliced is None and contention is not None:
        return StragglerSchedule([])
    return sliced


def training_inputs(
    request: JobRequest,
    percent: float,
    schedule: tuple | None,
    seed: int,
    scale: float,
) -> tuple[object, PolicyManager]:
    """Scaled job config + offline policy set for one admission.

    ``schedule`` is an optional ``(protocols, fractions)`` pair, built
    with the registry-validated :class:`ProtocolSchedule`; without one
    the admission trains the paper's BSP->ASP switch at ``percent``,
    the N=2 schedule.
    """
    setup = SETUPS[request.setup_index]
    job_seed = child_seed(seed, f"fleet/job/{request.job_id}") % (2**31)
    job = scaled_job(setup, scale, job_seed, request.steps_scale)
    if schedule is None:
        fraction = percent / 100.0
        schedule = (("bsp", "asp"), (fraction, 1.0 - fraction))
    protocols, fractions = schedule
    return job, PolicyManager(
        timing=TimingPolicy.for_schedule(fractions, source="fleet"),
        protocol=ProtocolSchedule(tuple(protocols)),
    )
