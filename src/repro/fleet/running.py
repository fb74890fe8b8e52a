"""One admitted job's lifecycle: train, project, resize, record.

A job trains as a resumable
:class:`~repro.core.runtime.elastic.ElasticTrainingRun` held paused at
its ASP-tail boundary (:func:`start_run`).  When the scheduler can
resize it, :class:`RunningJob` predicts its completion with a
numerics-free projection — the run's clock without its numbers — and
the live run trains each realized step once: up to every allocation
change, and to the end at the finish event, where it must end as the
projection that scheduled that event said it would.  Nothing here
knows the event loop: the pool, the contention schedule and the tracer
a method needs are handed in.
"""

from __future__ import annotations

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
    "start_run",
    "training_inputs",
]


class UnforeseenDivergence(Exception):
    """A live run diverged where its numerics-free projection could not
    see it coming: the fleet timeline built on that projection is void.

    ``key`` names the live trajectory (:attr:`RunningJob.trajectory`),
    ``step`` the update at which it diverged.
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
    job's allocation.  When it can, ``sim`` is the job's live run,
    paused at the last allocation change (initially the ASP-tail
    start), and ``projection`` predicts its completion from there on
    the current worker set without computing a gradient
    (:meth:`~repro.core.runtime.elastic.ElasticTrainingRun.project`);
    the live run trains the steps in between at the next allocation
    change (:meth:`resize`) or at the finish event (:meth:`finish`).

    When it cannot, nothing will ever pause the run again: the tail is
    trained at admission on the run itself, traced into
    ``trace_buffer`` (emitted when the job completes), and ``sim`` is
    None from then on — session and model are released at admission,
    not at the finish event.  So is a job that arrives finished (no
    elastic tail: all-BSP, or divergence inside the BSP phase).

    ``result`` holds the training result once there is one: from
    admission for those jobs, from :meth:`finish` for resizable ones.
    ``diverging`` maps live trajectories known to diverge
    (:attr:`trajectory`) to the step at which they do; a projection of
    one diverges there too.
    """

    def __init__(
        self,
        request: JobRequest,
        workers: tuple[int, ...],
        start: float,
        sim: ElasticTrainingRun,
        tracer,
        percent: float,
        tuned: bool,
        degraded: bool,
        resizable: bool,
        diverging: dict[tuple, int],
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
        self.trace_buffer = NULL_TRACER
        self.diverging = diverging
        #: Every (instant, physical workers) the job has trained on.
        self.placements = ((start, workers),)
        self._plan = tuple(
            (segment.protocol, segment.fraction)
            for segment in sim.plan.segments
        )
        self.sim: ElasticTrainingRun | None = None
        self.result: TrainingResult | None = None
        if resizable and not sim.finished:
            self.sim = sim
            self.projection = sim.project(diverging.get(self.trajectory))
        else:
            if not sim.finished:
                self.trace_buffer = tracer.sandbox()
                sim.set_tracer(self.trace_buffer)
                sim.run_to_completion()
            self.result = sim.result()
            self.projection = sim.completion()
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
        """What fixes the live run's numbers: the job, its plan and
        every placement it has trained on."""
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

        The live run first trains up to this instant, then the workers
        change hands with ``pool`` and the run is resized on the slice
        of ``contention`` its new physical mapping sees.  Each resize
        charges its own calibrated Table III reconfiguration cost to
        the job's clock — two same-pass shrinks pay it twice — but the
        completion is re-projected by the caller, once per scheduling
        pass (:meth:`reproject`).

        Returns whether the resize affected the job's timeline.  The
        pool always changes hands, but when the run completes inside
        the final update interval (a float edge: pauses land on update
        boundaries) the job's training is over and nothing is
        re-projected — the caller must then not count a
        preemption/restore, and no allocation segment is recorded.
        """
        # Train before the pool changes hands: the re-slice below must
        # see the *new* physical mapping, these steps the old.
        resumed = self.sim.advance_to(now - self.start)
        current = len(self.workers)
        if new_count < current:
            released = self.workers[new_count:]
            self.workers = self.workers[:new_count]
            pool.release(released)
        elif new_count > current:
            self.workers = self.workers + pool.allocate(new_count - current)
        if resumed != "paused":
            # The workers change hands but the job's timeline — and
            # its pending finish event — stay exactly as projected,
            # provided the projection saw this ending.
            self._check(self.sim.completion())
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
        sliced = job_stragglers(
            contention, self.workers, self.start, active_after=now
        )
        if sliced is None and contention is not None:
            # An *empty* re-slice (no events survive the resume
            # instant) must still replace the stale slice of the
            # previous physical mapping; None means "keep" to the
            # sim, which is only right when contention is off.
            sliced = StragglerSchedule([])
        self.sim.resize(len(self.workers), sliced)
        return True

    def reproject(self) -> float:
        """Project the completion afresh; returns the new finish time."""
        self.projection = self.sim.project(
            self.diverging.get(self.trajectory)
        )
        return self.finish_time()

    def finish(self) -> TrainingResult:
        """The job's training result, at its finish event.

        A resizable job's live run trains its last steps here, and
        must end as its latest projection said; the result is its own.
        """
        if self.sim is not None:
            self.sim.run_to_completion()
            self._check(self.sim.completion())
            self.result = self.sim.result()
            self.sim = None
        return self.result

    def _check(self, realized: Completion) -> None:
        """The live run ends as projected, or the timeline is void.

        Only a divergence can part the two — the clock is the timing
        model's alone — so any other difference is a defect, raised as
        one.
        """
        projected = self.projection
        if realized == projected:
            return
        if realized.diverged and not projected.diverged:
            raise UnforeseenDivergence(self.trajectory, realized.diverged_step)
        raise FleetError(
            f"job {self.request.job_id}: the live run ended at "
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

    def emit_spans(self, tracer, now: float) -> None:
        """Lifecycle spans of the job completing at ``now``: the events
        of a tail trained at admission, queue wait, the job itself, its
        BSP/ASP phases, and — at job detail — one span per allocation
        segment.  (A resizable job's live run traced its last steps at
        :meth:`finish`, just before.)"""
        tracer.absorb(self.trace_buffer)
        request = self.request
        pid = request.job_id + 1
        arrival = request.arrival
        cat = "search" if request.kind == "search-trial" else "job"
        result = self.result
        tracer.span(
            f"job-{request.job_id}",
            cat,
            self.start,
            now - self.start,
            pid=pid,
            tid=0,
            args={
                "sync_policy": request.sync_policy,
                "accuracy": result.reported_accuracy,
                "diverged": result.diverged,
                "preemptions": self.preemptions,
                "restores": self.restores,
                "tuned": self.tuned,
                "degraded": self.degraded,
            },
        )
        if self.start > arrival:
            tracer.span(
                "queued", "queue", arrival, self.start - arrival, pid=pid, tid=0
            )
        bsp_span = min(self.bsp_span, now - self.start)
        if bsp_span > 0.0:
            tracer.span("bsp-phase", "phase", self.start, bsp_span, pid=pid, tid=0)
        tail_start = self.start + bsp_span
        if now > tail_start:
            tracer.span(
                "async-tail", "phase", tail_start, now - tail_start, pid=pid, tid=0
            )
        if tracer.wants("job"):
            for index, row in enumerate(self.allocations):
                end = (
                    self.allocations[index + 1]["time"]
                    if index + 1 < len(self.allocations)
                    else now
                )
                tracer.span(
                    f"{row['workers']}w",
                    "alloc",
                    row["time"],
                    end - row["time"],
                    pid=pid,
                    tid=2,
                    args={"cause": row["cause"]},
                )


def start_run(
    request: JobRequest,
    workers: tuple[int, ...],
    now: float,
    percent: float,
    schedule: tuple | None,
    tracer,
    *,
    seed: int,
    scale: float,
    pool: WorkerPool,
    contention: StragglerSchedule | None,
) -> ElasticTrainingRun:
    """Start a job's resumable run, paused at the ASP-tail boundary.

    The paused state holds the BSP span, which no allocation change
    trains again.  Jobs without an elastic tail (all-BSP, or
    divergence inside the BSP phase) come back already finished.
    ``percent`` is the effective BSP percentage the admission
    resolved (tuned / degraded); ``schedule`` replaces the
    two-phase switch with a full ``(protocols, fractions)`` plan
    when set.  ``seed``/``scale``/``contention`` are the fleet's.
    The live run traces through ``tracer`` directly.
    """
    job, policies = training_inputs(request, percent, schedule, seed, scale)
    sim = ElasticTrainingRun(
        job=job,
        cluster_spec=ClusterSpec(n_workers=len(workers)),
        policies=policies,
        stragglers=job_stragglers(contention, workers, now),
        overhead_time_scale=scale,
        overhead_bandwidth=pool.bandwidth_for(workers),
        tracer=tracer,
    )
    sim.run_to_tail()
    return sim


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
