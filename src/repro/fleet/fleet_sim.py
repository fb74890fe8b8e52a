"""Discrete-event multi-tenant fleet simulator: the event loop.

The fleet layer sits on top of the single-job reproduction: a stream
of training jobs (Poisson arrivals or a trace file) is admitted onto a
shared pool of simulated workers by a pluggable scheduler, every
admitted job is trained as a resumable
:class:`~repro.core.runtime.elastic.ElasticTrainingRun` (the
controller-equivalent state machine) with its own synchronization
policy, and fleet-level telemetry (JCT, queueing delay, makespan,
utilization) is aggregated into a
:class:`~repro.fleet.metrics.FleetSummary`.

:class:`FleetSimulator` owns the heap, the clock, the scheduling pass
(admit / preempt / rebalance / complete / reject) and policy
resolution, and hands everything else to collaborators that never see
it: the physical pool and the contention its tenants share
(:mod:`repro.fleet.pool`), one job's clock / project / resize / cell
lifecycle (:mod:`repro.fleet.running`), the in-fleet Algorithm 1
search (:class:`repro.fleet.tuning.InFleetSearch`) and the invariant
checker (:mod:`repro.fleet.invariants`).

Timeline model
--------------

Each admitted job's telemetry yields two phase spans:

* the **BSP span** — everything up to the end of the last BSP segment
  (plus switch overheads).  BSP is barrier-synchronized, so this span
  is never stretched or shrunk by the fleet;
* the **ASP tail** — the asynchronous remainder, the only span the
  scheduler may elastically preempt.

An allocation change is handled by **event-driven elastic
re-simulation** (:mod:`repro.fleet.running`): the job's *clock run* —
timing-only, no model, dataset or parameters — advances to the
allocation-change instant and is resized, and a fresh projection (a
fork of it, run to the end) predicts the new completion, whose finish
event supersedes the old one (events carry the job's version).

**Timing first.**  When a job ends is the timing model's alone, so the
loop runs on clock runs and their projections.  A job's numbers come
from one *cell* at its finish event: a numeric run replaying every
placement the job held, which must end as the projection that
scheduled the event said.  Divergence, the one way numerics move the
clock, is invisible to a projection: when a cell diverges where its
projection did not, :meth:`FleetSimulator.run` discards the attempt
and simulates the stream again knowing it (docs/architecture.md,
*Timeline model*, has the bound and the one residual input class).

Only a preemptive scheduler ever changes an allocation.  Under the
others a clock run has no use, so the admission runs the cell at once
— no projection — and a running job holds its result and nothing of
its training state.

A job that is never resized is bit-identical to the controller's
one-shot execution of the same inputs: pinned per run by
``tests/core/test_elastic_run.py::TestOneShotParity`` and per fleet
job by the one-shot oracle
``TestGoldenParity::test_unresized_jobs_match_one_shot_controller`` in
the fleet suite.

Determinism: every stochastic choice derives from the fleet seed via
:func:`repro.rng.child_rng`, so the same configuration always produces
an identical :class:`FleetSummary`.
"""

from __future__ import annotations

import copy
import heapq
import logging
import math
from dataclasses import dataclass, replace

from repro.core.search.binary_search import validate_sequences
from repro.distsim.cluster import WorkerTier, default_worker_tiers
from repro.errors import ConfigurationError, FleetError, SearchError
from repro.experiments.setups import check_scale
from repro.fleet.invariants import check_invariants
from repro.fleet.metrics import FleetSummary, JobRecord, summarize_fleet
from repro.fleet.policy_store import JobClass, PolicyStore
from repro.fleet.pool import PREEMPTION_FLOOR, WorkerPool, fleet_contention
from repro.fleet.running import RunningJob, UnforeseenDivergence, job_record
from repro.fleet.scheduler import (
    SchedulerContext,
    SchedulerPolicy,
    make_scheduler,
)
from repro.fleet.tuning import InFleetSearch
from repro.fleet.workload import (
    FLEET_SCENARIOS,
    TRACE_SCENARIOS,
    JobRequest,
    check_schedule,
    poisson_stream,
    trace_stream,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import DETAIL_LEVELS, NULL_TRACER, Tracer

__all__ = [
    "FleetConfig",
    "check_stream_schedule",
    "WorkerPool",
    "FleetSimulator",
    "realize_stream",
    "simulate_fleet",
]

#: Event priorities at equal timestamps: completions free workers
#: before phase flips and new arrivals are considered.
_FINISH, _PHASE, _ARRIVAL = 0, 1, 2

_LOG = logging.getLogger("repro.fleet.fleet_sim")


@dataclass(frozen=True)
class FleetConfig:
    """One fleet simulation: scenario, scheduler, policy, seed, scale.

    ``tune`` enables the amortized timing search: the first admitted
    Sync-Switch job of each recurring class launches Algorithm 1 as
    fleet jobs (``tune_runs`` static-BSP target runs, then
    ``tune_runs`` sessions per explored setting, mirroring the paper's
    ``(recurring, bn, r)`` search settings of Tables II/IV-VI; the
    acceptance band is :data:`repro.fleet.tuning.TUNE_BETA`).

    ``protocols`` generalizes both knobs from the two-phase switch to
    an N-segment schedule: with ``tune=True`` the search explores that
    protocol sequence's per-boundary switch fractions (coordinate
    descent, Algorithm 1 per boundary) instead of the single BSP->ASP
    switch point; with ``fractions`` also given, every un-tuned
    Sync-Switch stream job trains the fixed schedule directly.  Both
    default to None — the plain two-phase fleet.

    Every configuration runs the same checked loop: pool-wide ambient
    contention is always on, and the invariant checker
    (:mod:`repro.fleet.invariants`) runs at every event.
    """

    scenario: str = "rush"
    scheduler: str = "fifo"
    sync_policy: str = "sync-switch"
    seed: int = 0
    scale: float = 0.008
    n_jobs: int | None = None
    pool_size: int | None = None
    trace: tuple[JobRequest, ...] | None = None
    tune: bool = False
    tune_runs: int = 1
    protocols: tuple[str, ...] | None = None
    fractions: tuple[float, ...] | None = None
    #: Observability: ``trace_detail`` turns on the virtual-time tracer
    #: at the given granularity; ``metrics_interval`` sets the registry
    #: snapshot cadence in virtual seconds (tracing alone enables the
    #: registry at its default cadence).  Purely observational — traced
    #: runs are bit-identical to untraced ones.
    trace_detail: str | None = None
    metrics_interval: float | None = None
    #: Heterogeneous worker tiers: None resolves the scenario default
    #: (trace scenarios split fast/slow via
    #: :func:`~repro.distsim.cluster.default_worker_tiers`; classic
    #: scenarios stay uniform), an empty tuple forces a uniform pool,
    #: and an explicit tuple must sum to the pool size.
    tiers: tuple[WorkerTier, ...] | None = None

    def __post_init__(self):
        if (
            self.trace is None
            and self.scenario not in FLEET_SCENARIOS
            and self.scenario not in TRACE_SCENARIOS
        ):
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r}; known: "
                f"{sorted(FLEET_SCENARIOS) + sorted(TRACE_SCENARIOS)}"
            )
        if self.tiers is not None:
            object.__setattr__(self, "tiers", tuple(self.tiers))
        if self.trace is not None and self.n_jobs is not None:
            # A trace fixes the stream; a silently ignored n_jobs would
            # still split the cache key per value.
            raise ConfigurationError("n_jobs cannot be combined with a trace")
        check_scale(self.scale)
        if self.tune_runs < 1:
            raise ConfigurationError("tune_runs must be >= 1")
        if self.trace_detail is not None and self.trace_detail not in DETAIL_LEVELS:
            raise ConfigurationError(
                f"unknown trace detail {self.trace_detail!r}; "
                f"known: {DETAIL_LEVELS}"
            )
        interval = self.metrics_interval
        if interval is not None and not (math.isfinite(interval) and interval > 0):
            raise ConfigurationError(
                f"metrics_interval must be finite and positive, got {interval}"
            )
        if self.fractions is not None and self.protocols is None:
            raise ConfigurationError("fractions requires protocols")
        if self.protocols is not None:
            protocols, fractions = check_stream_schedule(
                self.protocols, self.fractions
            )
            object.__setattr__(self, "protocols", protocols)
            object.__setattr__(self, "fractions", fractions)
            if fractions is None and not self.tune:
                raise ConfigurationError(
                    "protocols without fractions needs tune=True "
                    "(there is no schedule to train otherwise)"
                )


def check_stream_schedule(
    protocols, fractions
) -> tuple[tuple[str, ...], tuple[float, ...] | None]:
    """A stream's protocol schedule, normalized and checked: protocols
    in strictly decreasing precision and, when given, one share in
    [0, 1] per protocol, summing to 1."""
    protocols = tuple(str(name) for name in protocols)
    try:
        validate_sequences((protocols,))
    except SearchError as exc:
        raise ConfigurationError(str(exc)) from exc
    if fractions is not None:
        fractions = tuple(float(value) for value in fractions)
        if any(not 0.0 <= value <= 1.0 for value in fractions):
            raise ConfigurationError("schedule fractions must be in [0, 1]")
        check_schedule(protocols, fractions)
    return protocols, fractions


def realize_stream(
    config: FleetConfig,
) -> tuple[tuple[JobRequest, ...], str, int]:
    """The job stream ``config`` serves, its scenario name and its
    default pool size: the trace in arrival order, else the named
    scenario's generated stream."""
    if config.trace is not None:
        if not config.trace:
            raise ConfigurationError("trace must contain at least one job")
        stream = tuple(
            sorted(config.trace, key=lambda job: (job.arrival, job.job_id))
        )
        default_pool = max(job.n_workers for job in stream) * 2
        return stream, config.scenario or "trace", default_pool
    if config.scenario in TRACE_SCENARIOS:
        base = TRACE_SCENARIOS[config.scenario]
        generate = trace_stream
    else:
        base = FLEET_SCENARIOS[config.scenario]
        generate = poisson_stream
    stream = generate(
        base,
        config.scale,
        config.seed,
        n_jobs=config.n_jobs,
        sync_policy=config.sync_policy,
    )
    return stream, base.name, base.pool_size


@dataclass
class FleetSimulator:
    """Discrete-event loop serving one stream of training jobs.

    The fleet-scale realization of the paper's intended deployment
    (Section VI-C: recurring jobs on a shared cluster): every admitted
    job trains as a resumable
    :class:`~repro.core.runtime.elastic.ElasticTrainingRun`, and
    with ``tune=True`` the switch timing itself is searched in-stream
    (Algorithm 1 trials as fleet jobs) and amortized via the
    :class:`~repro.fleet.policy_store.PolicyStore`.
    """

    config: FleetConfig
    #: Optional pre-populated policy store (warm start): persisted
    #: stores let recurring classes reuse searched policies across
    #: fleet runs — the paper's ``(Yes, 0, r)`` setting.
    store: PolicyStore | None = None

    def __post_init__(self):
        config = self.config
        #: Observability sinks, resolved from the config (null objects
        #: when off).
        self.tracer = (
            Tracer(config.trace_detail) if config.trace_detail else NULL_TRACER
        )
        if config.metrics_interval is not None:
            self.metrics = MetricsRegistry(config.metrics_interval)
        elif self.tracer.enabled:
            self.metrics = MetricsRegistry()
        else:
            self.metrics = NULL_METRICS
        #: Final metrics dump (set by ``run`` when the registry is on).
        self.metrics_payload: dict | None = None
        self.stream, self.scenario_name, default_pool = realize_stream(config)
        self.pool_size = config.pool_size or default_pool
        ids = [request.job_id for request in self.stream]
        if len(set(ids)) != len(ids):
            # Running jobs are keyed by id: a duplicate would silently
            # orphan its predecessor's workers.
            raise ConfigurationError("stream has duplicate job ids")
        for request in self.stream:
            if request.n_workers > self.pool_size:
                raise ConfigurationError(
                    f"job {request.job_id} demands {request.n_workers} "
                    f"workers but the pool only has {self.pool_size}"
                )
        if config.tiers is not None:
            tiers = config.tiers or None  # empty tuple forces uniform
        elif config.trace is None and config.scenario in TRACE_SCENARIOS:
            tiers = default_worker_tiers(self.pool_size)
        else:
            tiers = None
        self._tiers = tiers
        if self.store is None:
            self.store = PolicyStore()
        self._first_trial_id = max(ids, default=-1) + 1
        #: Live trajectories known to diverge -> the step they do it
        #: at (:attr:`RunningJob.trajectory`), learnt by discarded
        #: attempts of :meth:`run`.
        self._diverging: dict[tuple, int] = {}
        self._reset()
        self.scheduler: SchedulerPolicy = make_scheduler(config.scheduler)
        self.contention = fleet_contention(
            self.pool,
            self.stream,
            config.scale,
            config.seed,
            self.scenario_name,
        )

    def _reset(self) -> None:
        """Loop state of a fresh attempt: nothing queued or running."""
        self.pool = WorkerPool(self.pool_size, self._tiers)
        self._seq = 0
        self._heap: list[tuple[float, int, int, object]] = []
        self._queue: list[JobRequest] = []
        self._running: dict[int, RunningJob] = {}
        self._records: list[JobRecord] = []
        self._busy_seconds = 0.0
        self._last_time = 0.0
        # In-fleet Algorithm 1 (consulted only with ``config.tune``);
        # its trial jobs take ids above the stream's.
        self.search = InFleetSearch(
            self.store,
            self.config.tune_runs,
            self.config.protocols,
            first_trial_id=self._first_trial_id,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        # SLO state: pending degrade decisions from scheduler triage.
        self._degraded: set[int] = set()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self) -> FleetSummary:
        """Simulate the whole stream and return the fleet summary.

        An attempt a job's cell voids (it diverged where its
        numerics-free projection did not) is discarded — the tracer, the metrics
        registry and the policy store are put back as they were — and
        the stream is simulated again knowing that divergence: at most
        one more attempt per divergence found.
        """
        sinks = (self.tracer, self.metrics, self.store)
        before = copy.deepcopy([vars(sink) for sink in sinks])
        while True:
            try:
                return self._attempt()
            except UnforeseenDivergence as found:
                self._diverging[found.key] = found.step
                _LOG.debug(
                    "attempt %d void: job %d diverged at step %d",
                    len(self._diverging), found.key[0], found.step,
                )
            for sink, state in zip(sinks, copy.deepcopy(before)):
                vars(sink).clear()
                vars(sink).update(state)
            self._reset()

    def _attempt(self) -> FleetSummary:
        tracer = self.tracer
        if tracer.enabled:
            tracer.process_name(
                0, f"fleet {self.scenario_name}/{self.scheduler.name}"
            )
            tracer.thread_name(0, 0, "scheduler")
        for request in self.stream:
            self._push(request.arrival, _ARRIVAL, request)
        while self._heap:
            now, _, _, payload = heapq.heappop(self._heap)
            self._advance(now)
            if isinstance(payload, JobRequest):
                self._queue.append(payload)
                if tracer.enabled:
                    tracer.instant(
                        f"arrival job-{payload.job_id}",
                        "arrival",
                        now,
                        args={"kind": payload.kind, "demand": payload.n_workers},
                    )
            else:
                kind, job_id, version = payload
                job = self._running.get(job_id)
                if job is None or job.version != version:
                    continue  # superseded by a reallocation
                if kind == "phase":
                    job.enter_asp()
                else:
                    self._complete(job, now)
            self._schedule(now)
            self._check(now)
        if self._queue or self._running or self.search.open_searches:
            raise FleetError(
                f"stream ended with {len(self._queue)} queued, "
                f"{len(self._running)} running job(s) and "
                f"{self.search.open_searches} unfinished search(es)"
            )
        if self.metrics.enabled:
            self.metrics_payload = self.metrics.payload(self._last_time)
        return summarize_fleet(
            scenario=self.scenario_name,
            scheduler=self.scheduler.name,
            sync_policy=self.config.sync_policy,
            seed=self.config.seed,
            scale=self.config.scale,
            pool_size=self.pool_size,
            records=self._records,
            busy_worker_seconds=self._busy_seconds,
            tuning=self.store.report() if self.config.tune else None,
        )

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------
    def _push(self, time: float, priority: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, priority, self._seq, payload))

    def _check(self, now: float) -> None:
        check_invariants(
            self.pool,
            self._queue,
            self._running,
            PREEMPTION_FLOOR,
            self._last_time,
            now,
        )

    def _advance(self, now: float) -> None:
        self._check(now)
        self._busy_seconds += self.pool.busy_count * (now - self._last_time)
        self._last_time = now
        metrics = self.metrics
        if metrics.enabled:
            metrics.set_gauge("queue_depth", len(self._queue))
            metrics.set_gauge("running_jobs", len(self._running))
            metrics.set_gauge("pool_busy", self.pool.busy_count)
            metrics.set_gauge("pool_free", self.pool.free_count)
            metrics.set_gauge(
                "pool_utilization", self.pool.busy_count / self.pool.size
            )
            metrics.maybe_snapshot(now, self.tracer)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _schedule(self, now: float) -> None:
        """Triage, admit, preempt and rebalance until nothing changes."""
        if self.tracer.enabled:
            self.tracer.instant(
                "pass",
                "scheduler",
                now,
                args={
                    "queued": len(self._queue),
                    "free": self.pool.free_count,
                    "running": len(self._running),
                },
            )
        context = SchedulerContext(
            now=now,
            scale=self.config.scale,
            store=self.store,
            preemptible=self._preemptible_surplus(),
            pool=self.pool,
            tracer=self.tracer,
        )
        rejected, degraded = self.scheduler.triage(
            self._queue, self.pool.free_count, self.config.scale, context
        )
        for request in rejected:
            self._queue.remove(request)
            self._reject(request, now)
        # Recomputed wholesale every pass: a queued job degraded while
        # its class was un-tuned is rescued if tuning finishes first.
        self._degraded.clear()
        self._degraded.update(degraded)
        # Jobs already shrunk in this pass: repeated reclaims within one
        # pass must not double-count a victim's preemptions.
        shrunk_this_pass: set[int] = set()
        # Jobs resized in this pass: their completion is re-projected
        # once, after the pass settles — nothing reads an intermediate
        # projection, so a victim shrunk twice within one pass is
        # projected once, not once per shrink.
        reproject: dict[int, RunningJob] = {}
        while True:
            admitted = self.scheduler.admit(
                self._queue, self.pool.free_count, self.config.scale, context
            )
            for request in admitted:
                self._queue.remove(request)
                self._admit(request, now)
            if admitted:
                continue
            if self.scheduler.preemptive and self._queue:
                # Refresh the reclaimable surplus: admissions earlier in
                # this pass may have started new (instantly-ASP) jobs
                # and prior reclaims changed allocations.
                context = replace(
                    context, preemptible=self._preemptible_surplus()
                )
                wanted = self.scheduler.preemption_request(
                    self._queue, self.pool.free_count, self.config.scale,
                    context,
                )
                if wanted > 0 and self._preempt(
                    wanted, now, shrunk_this_pass, reproject
                ) > 0:
                    continue
            break
        self._rebalance(now, reproject)
        for job in reproject.values():
            self._push(
                job.reproject(),
                _FINISH,
                ("finish", job.request.job_id, job.version),
            )

    def _preemptible_surplus(self) -> int:
        """Workers reclaimable from ASP-phase jobs above the floor."""
        return sum(
            len(job.workers) - PREEMPTION_FLOOR
            for job in self._running.values()
            if job.phase == "asp" and len(job.workers) > PREEMPTION_FLOOR
        )

    def _admit(self, request: JobRequest, now: float) -> None:
        percent, tuned, degraded, schedule = self._resolve_percent(request)
        workers = self.pool.allocate(request.n_workers)
        tracer = self.tracer
        job_tracer = NULL_TRACER
        if tracer.enabled:
            pid = request.job_id + 1
            tracer.process_name(
                pid, f"job-{request.job_id} ({request.sync_policy})"
            )
            tracer.thread_name(pid, 0, "lifecycle")
            tracer.thread_name(pid, 1, "training")
            tracer.thread_name(pid, 2, "alloc")
            tracer.instant(
                f"admit job-{request.job_id}",
                "admission",
                now,
                args={
                    "workers": len(workers),
                    "percent": percent,
                    "tuned": tuned,
                    "degraded": degraded,
                },
            )
            job_tracer = tracer.scoped(pid, now)
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc("jobs_admitted")
            if degraded:
                metrics.inc("jobs_degraded")
            metrics.observe("queue_delay_s", now - request.arrival)
        job = RunningJob(
            request, workers, now, job_tracer,
            percent=percent, schedule=schedule, tuned=tuned, degraded=degraded,
            # _preempt is the only source of allocation changes
            # (_rebalance restores what it shrank).
            resizable=self.scheduler.preemptive,
            diverging=self._diverging,
            seed=self.config.seed,
            scale=self.config.scale,
            pool=self.pool,
            contention=self.contention,
        )
        self._running[request.job_id] = job
        if job.asp_tail > 0.0 and job.bsp_span > 0.0:
            self._push(
                now + job.bsp_span, _PHASE, ("phase", request.job_id, 0)
            )
        elif job.asp_tail > 0.0:
            job.enter_asp()
        self._push(job.finish_time(), _FINISH, ("finish", request.job_id, 0))
        if self.config.tune:
            for trial in self.search.job_admitted(request, now):
                self._push(now, _ARRIVAL, trial)

    def _resolve_percent(
        self, request: JobRequest
    ) -> tuple[float, bool, bool, tuple | None]:
        """Effective policy for an admission: ``(percent, tuned,
        degraded, schedule)``.

        Sync-Switch stream jobs of a tuned class reuse the policy
        store's searched ``(protocols, fractions)`` schedule (the
        amortized recurrence of Section VI-C); un-tuned jobs fall back to
        the config's fixed schedule when one is set.  A job carrying
        its own schedule (in-fleet search trials, explicit trace
        jobs) trains it as-is.  A pending SLO degrade decision
        overrides everything with its conservative all-BSP percentage.
        """
        percent = request.percent
        tuned = False
        schedule = None
        if request.protocols is not None:
            schedule = (request.protocols, request.fractions)
        elif request.tunable:
            policy = self.store.lookup(JobClass.of(request))
            if policy is not None:
                self.metrics.inc("policy_store_hits")
                percent, tuned = policy.percent, True
                schedule = (policy.protocols, policy.fractions)
            else:
                self.metrics.inc("policy_store_misses")
                if self.config.fractions is not None:
                    schedule = (self.config.protocols, self.config.fractions)
                    percent = self.config.fractions[0] * 100.0
        degraded = request.job_id in self._degraded
        if degraded:
            self._degraded.discard(request.job_id)
            percent, tuned, schedule = 100.0, False, None
        return percent, tuned, degraded, schedule

    def _reject(self, request: JobRequest, now: float) -> None:
        """Record an SLO rejection (the job never trains)."""
        if self.tracer.enabled:
            self.tracer.instant(
                f"reject job-{request.job_id}",
                "admission",
                now,
                args={"deadline": request.deadline},
            )
        self.metrics.inc("jobs_rejected")
        self._records.append(job_record(request, now, now, "rejected"))
        self._degraded.discard(request.job_id)

    def _preempt(
        self,
        wanted: int,
        now: float,
        shrunk_this_pass: set[int],
        reproject: dict[int, RunningJob],
    ) -> int:
        """Reclaim up to ``wanted`` workers from ASP-phase jobs.

        A no-op when the reclaimable surplus could not make any queued
        job fit — shrinking victims only to restore them in the same
        scheduling pass would be pure churn.  A victim shrunk more than
        once within one scheduling pass counts a single preemption
        (``shrunk_this_pass`` spans the pass, not this call).
        """
        floor = PREEMPTION_FLOOR
        victims = sorted(
            (
                job
                for job in self._running.values()
                if job.phase == "asp" and len(job.workers) > floor
            ),
            key=lambda job: (-len(job.workers), job.request.job_id),
        )
        surplus = sum(len(job.workers) - floor for job in victims)
        smallest = min(request.n_workers for request in self._queue)
        if self.pool.free_count + surplus < smallest:
            return 0
        freed = 0
        for job in victims:
            if freed >= wanted:
                break
            take = min(len(job.workers) - floor, wanted - freed)
            applied = self._resize(
                job, len(job.workers) - take, now, "preempt", reproject
            )
            if applied and job.request.job_id not in shrunk_this_pass:
                shrunk_this_pass.add(job.request.job_id)
                job.preemptions += 1
            freed += take
        return freed

    def _rebalance(self, now: float, reproject: dict[int, RunningJob]) -> None:
        """Give leftover free workers back to shrunk ASP jobs."""
        while self.pool.free_count > 0:
            starved = sorted(
                (
                    job
                    for job in self._running.values()
                    if job.phase == "asp" and len(job.workers) < job.demand
                ),
                key=lambda job: (
                    len(job.workers) / job.demand,
                    job.request.job_id,
                ),
            )
            if not starved:
                break
            job = starved[0]
            grant = min(
                self.pool.free_count, job.demand - len(job.workers)
            )
            if self._resize(
                job, len(job.workers) + grant, now, "restore", reproject
            ):
                job.restores += 1

    def _resize(
        self,
        job: RunningJob,
        new_count: int,
        now: float,
        cause: str,
        reproject: dict[int, RunningJob],
    ) -> bool:
        """Change a running ASP job's allocation (:meth:`RunningJob.resize`).

        The new completion is projected once per scheduling pass, from
        the pass-scoped ``reproject`` dict.  Returns whether the job's
        timeline changed; when not, the workers still changed hands but
        the caller must not count a preemption/restore.
        """
        if not job.resize(
            new_count, now, cause, self.pool, self.contention, self.tracer
        ):
            return False
        self.metrics.inc(f"resize_{cause}")
        reproject[job.request.job_id] = job
        return True

    def _complete(self, job: RunningJob, now: float) -> None:
        result = job.finish(self.contention)
        self.pool.release(job.workers)
        del self._running[job.request.job_id]
        record = job.record(now)
        if self.tracer.enabled:
            job.emit_spans(self.tracer, record)
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc("jobs_completed")
            metrics.observe("jct_s", now - job.request.arrival)
            metrics.observe(
                "staleness_p95", float(result.staleness.get("p95", 0.0))
            )
            metrics.inc("overhead_paid_s", result.total_overhead)
            metrics.inc("protocol_switches", result.switch_count)
        self._records.append(record)
        if job.request.kind == "search-trial":
            for trial in self.search.trial_finished(
                job.request.job_id, result, now - job.start, now
            ):
                self._push(now, _ARRIVAL, trial)
        elif job.tuned:
            self.store.note_recurrence(JobClass.of(job.request), now - job.start)


def simulate_fleet(config: FleetConfig) -> FleetSummary:
    """Run one fleet configuration end to end (one fleet cell).

    The unit of the ``fleet``/``fleet-search`` artifacts: a whole
    multi-job stream served on one shared pool (Section VI-C's
    recurring-job setting), summarized into fleet telemetry (use
    :func:`repro.experiments.fleet.run_traced_fleet` to get the events
    and metrics payload back alongside the summary).
    """
    return FleetSimulator(config).run()
