"""One admitted job's lifecycle: train, fork, project, resize, record.

A job trains as a resumable
:class:`~repro.core.runtime.elastic.ElasticTrainingRun` held paused at
its ASP-tail boundary (:func:`start_run`); :class:`RunningJob` projects
its completion from that state and re-simulates it whenever the
allocation changes.  Nothing here knows the event loop: the pool, the
contention schedule and the tracer a method needs are handed in.
"""

from __future__ import annotations

from repro.core.policies import (
    ConfigurationPolicy,
    PolicyManager,
    ProtocolSchedule,
    TimingPolicy,
)
from repro.core.runtime import ElasticTrainingRun
from repro.distsim.cluster import ClusterSpec
from repro.distsim.engines import synchronous_protocols
from repro.distsim.result import TrainingResult
from repro.distsim.stragglers import StragglerSchedule
from repro.experiments.setups import SETUPS, scaled_job
from repro.fleet.metrics import JobRecord
from repro.fleet.pool import WorkerPool, job_stragglers
from repro.fleet.workload import JobRequest
from repro.obs.tracer import NULL_TRACER
from repro.rng import child_seed

__all__ = [
    "RunningJob",
    "job_record",
    "project",
    "start_run",
    "training_inputs",
]


def project(
    sim: ElasticTrainingRun, tracer, fork: bool = True
) -> tuple[TrainingResult, object]:
    """Project a paused run's completion on its current worker set.

    Trains a fork to the end while the live run stays paused for the
    next allocation change — or, with ``fork=False``, the live run
    itself, when no allocation change can ever come and the caller
    lets go of the run afterwards.  Returns ``(result, trace_buffer)``:
    the tail traces into a sandbox of ``tracer``, which becomes the
    job's events past the pause instant only if no allocation change
    supersedes the projection.
    """
    projection = sim.fork() if fork else sim
    buffer = tracer.sandbox()
    projection.set_tracer(buffer)
    projection.run_to_completion()
    return projection.result(), buffer


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

    ``sim`` is the job's :class:`ElasticTrainingRun`, paused at the
    last allocation-change boundary (initially the ASP-tail start);
    ``result`` always holds the *projection* of the completion from
    that state on the current worker set.  A job without an elastic
    tail (all-BSP, or divergence inside the BSP phase) arrives with
    ``sim`` already finished and ``result`` is the run's own.

    ``resizable`` says whether the scheduler can ever change this
    job's allocation.  When it cannot, nothing will resume the paused
    run: the tail is trained on the run itself instead of a fork, and
    ``sim`` is None from then on — session and model are released at
    admission, not at the finish event.
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
    ):
        self.request = request
        self.workers = workers
        self.start = start
        self.sim = sim if resizable else None
        self.percent = percent
        self.tuned = tuned
        self.degraded = degraded
        self.demand = request.n_workers
        self.phase = "bsp"
        self.version = 0
        self.preemptions = 0
        self.restores = 0
        #: Job-scoped tracer view (pid/offset pinned) and the sandbox
        #: buffer of the latest completion projection — absorbed into
        #: the live trace only when the projection turns out to be the
        #: realized tail.
        self.tracer = tracer
        if sim.finished:
            self.result, self.trace_buffer = sim.result(), NULL_TRACER
        else:
            self.result, self.trace_buffer = project(
                sim, tracer, fork=resizable
            )
        #: Allocation history: one row per allocation-changing event.
        self.allocations: list[dict] = [
            {"time": start, "workers": len(workers), "cause": "admit"}
        ]
        # Phase spans from the training telemetry: everything after the
        # last barrier-synchronized segment is the elastic async tail
        # (for a bsp -> ssp -> asp schedule that is the ssp+asp span).
        tail = 0.0
        synchronous = synchronous_protocols()
        for record in reversed(self.result.segment_summary):
            if record["protocol"] in synchronous:
                break
            tail += record["duration"]
        self.asp_tail = min(tail, self.result.total_time)
        self.bsp_span = self.result.total_time - self.asp_tail

    def enter_asp(self) -> None:
        """Flip to the (preemptible, elastic) ASP phase."""
        self.phase = "asp"

    def finish_time(self) -> float:
        """Projected completion time at the current allocation.

        The admission-time projection is evaluated phase by phase and
        a re-projection after a resize from the re-simulated total:
        the two float expressions round differently, and the committed
        golden hashes pin each.
        """
        if len(self.allocations) > 1:
            return self.start + self.result.total_time
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

        The paused run is first resumed to this instant (replaying
        exactly what the previous projection predicted), then the
        workers change hands with ``pool`` and the run is resized on
        the slice of ``contention`` its new physical mapping sees.
        Each resize charges its own reconfiguration overhead — two
        same-pass shrinks are two real checkpoint→reconfigure→restart
        cycles — but the completion is re-projected by the caller, once
        per scheduling pass (:meth:`reproject`).

        Returns whether the resize affected the job's timeline.  The
        pool always changes hands, but when the replay discovers the
        run completing inside the final update interval (a float edge:
        pauses land on update boundaries) the job's training is over
        and nothing is re-simulated — the caller must then not count a
        preemption/restore, and no allocation segment is recorded.
        """
        # Resume before the pool changes hands: the re-slice below
        # must see the *new* physical mapping, the replay the old.
        resumed = self.sim.advance_to(now - self.start)
        current = len(self.workers)
        if new_count < current:
            released = self.workers[new_count:]
            self.workers = self.workers[:new_count]
            pool.release(released)
        elif new_count > current:
            self.workers = self.workers + pool.allocate(new_count - current)
        if resumed != "paused":
            # Replay found the run already complete: the workers change
            # hands but the job's timeline — and its pending finish
            # event — stay exactly as projected.
            return False
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
        self.result, self.trace_buffer = project(self.sim, self.tracer)
        return self.finish_time()

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
        """Lifecycle spans of the job completing at ``now``: the last
        projection's events (it became the realized tail), queue wait,
        the job itself, its BSP/ASP phases, and — at job detail — one
        span per allocation segment."""
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

    The paused state is the cached BSP span no allocation change
    ever replays.  Jobs without an elastic tail (all-BSP, or
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

    ``schedule`` is an optional ``(protocols, fractions)`` pair: an
    N-segment plan built with the registry-validated
    :class:`ProtocolSchedule`; without one the admission trains the
    paper's two-phase BSP->ASP switch at ``percent``.
    """
    setup = SETUPS[request.setup_index]
    job_seed = child_seed(seed, f"fleet/job/{request.job_id}") % (2**31)
    job = scaled_job(setup, scale, job_seed, request.steps_scale)
    if schedule is not None:
        protocols, fractions = schedule
        policies = PolicyManager(
            timing=TimingPolicy.for_schedule(fractions, source="fleet"),
            protocol=ProtocolSchedule(tuple(protocols)),
            config=ConfigurationPolicy(),
        )
    else:
        policies = PolicyManager(
            timing=TimingPolicy(percent / 100.0, source="fleet"),
            config=ConfigurationPolicy(),
        )
    return job, policies
