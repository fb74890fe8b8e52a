"""Pluggable fleet scheduling policies.

A scheduler decides, at every fleet event, which queued jobs to admit
onto the free workers — and, for the preemptive policy, how many
workers to reclaim from running ASP-phase jobs when the queue is
starved.  The fleet layer extends the paper's recurring-job setting
(Section VI-C: shared clusters serving repeated training jobs) with
four classic policies:

* ``fifo`` — strict arrival order with head-of-line blocking: nothing
  behind a job that does not fit is admitted.
* ``sjf`` — smallest-job-first by estimated service time; short jobs
  overtake long ones, shrinking mean JCT under contention.
* ``best-fit`` — bin-packing: repeatedly admit the queued job that
  fills the free capacity most tightly; when nothing fits it asks the
  simulator to preempt workers from ASP-phase jobs (BSP phases are
  barrier-synchronized and are never shrunk).
* ``slo`` — deadline-aware admission: earliest-deadline-first
  ordering plus a :meth:`~SchedulerPolicy.triage` pass that consults
  the :class:`~repro.fleet.policy_store.PolicyStore`'s predicted JCT
  to reject infeasible jobs and degrade un-tuned Sync-Switch jobs to
  the conservative all-BSP policy whose service time the prediction
  is based on.

Schedulers are deterministic: ties break on arrival order then job id.
All decision hooks receive a :class:`SchedulerContext` carrying the
fleet state a policy may consult (simulated time, policy store); the
three classic policies ignore it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.fleet.policy_store import JobClass, PolicyStore
from repro.fleet.workload import JobRequest, estimate_service_time
from repro.obs.tracer import NULL_TRACER

__all__ = [
    "SchedulerContext",
    "SchedulerPolicy",
    "FifoScheduler",
    "SmallestJobFirstScheduler",
    "BestFitScheduler",
    "SloAwareScheduler",
    "SCHEDULERS",
    "make_scheduler",
]


@dataclass(frozen=True)
class SchedulerContext:
    """Fleet state available to scheduling decisions.

    ``store`` is the fleet's :class:`~repro.fleet.policy_store.PolicyStore`
    (present on every simulation; only populated with tuned policies
    when tuning is enabled).  ``preemptible`` is the number of workers
    currently reclaimable from ASP-phase jobs above the preemption
    floor — preemptive policies cap their reclaim requests at it, so a
    request never exceeds what the fleet could actually free.
    """

    now: float = 0.0
    scale: float = 1.0
    store: PolicyStore | None = None
    preemptible: int = 0
    #: The fleet's :class:`~repro.fleet.pool.WorkerPool` (None in
    #: bare unit-test contexts).  Heterogeneous pools expose tiered
    #: capacity through it: placement-aware policies ask
    #: ``pool.placement_slowdown(count)`` what a ``count``-worker
    #: allocation would cost in step-time terms.
    pool: object | None = None
    #: Observability sink for decision rationale (never affects the
    #: decision itself); the fleet passes its live tracer when on.
    tracer: object = NULL_TRACER


class SchedulerPolicy:
    """Base admission policy (subclasses override :meth:`admit`)."""

    name = "base"
    #: Whether the policy may ask for ASP-phase preemption.
    preemptive = False

    def admit(
        self,
        queue: list[JobRequest],
        free_workers: int,
        scale: float,
        context: SchedulerContext | None = None,
    ) -> list[JobRequest]:
        """Jobs to admit now, in admission order (subset of ``queue``)."""
        raise NotImplementedError

    def triage(
        self,
        queue: list[JobRequest],
        free_workers: int,
        scale: float,
        context: SchedulerContext | None = None,
    ) -> tuple[list[JobRequest], set[int]]:
        """SLO pass before admission: ``(rejected, degraded)``.

        ``rejected`` jobs are dropped from the queue and recorded as
        SLO rejections; ``degraded`` holds the ids of jobs that must
        train all-BSP instead of their requested policy.  The default
        (non-SLO policies) touches nothing.
        """
        return [], set()

    def preemption_request(
        self,
        queue: list[JobRequest],
        free_workers: int,
        scale: float,
        context: SchedulerContext | None = None,
    ) -> int:
        """Workers the policy wants reclaimed from ASP-phase jobs (0 = none)."""
        return 0


class FifoScheduler(SchedulerPolicy):
    """Arrival order with head-of-line blocking.

    The neutral baseline for the shared-cluster experiments
    (Section VI-C setting): JCT differences under FIFO isolate the
    sync policy's service-time effect from scheduling cleverness.
    """

    name = "fifo"

    def admit(self, queue, free_workers, scale, context=None):
        admitted = []
        for request in queue:
            if request.n_workers > free_workers:
                break
            admitted.append(request)
            free_workers -= request.n_workers
        return admitted


class SmallestJobFirstScheduler(SchedulerPolicy):
    """Shortest estimated service time first (no blocking).

    Its service estimates use the same per-setup timing model as the
    paper's Table I workloads, so Sync-Switch jobs (short) overtake
    all-BSP jobs (long) under contention.
    """

    name = "sjf"

    def admit(self, queue, free_workers, scale, context=None):
        ordered = sorted(
            queue,
            key=lambda request: (
                estimate_service_time(
                    request.setup_index,
                    request.percent,
                    scale,
                    request.steps_scale,
                ),
                request.arrival,
                request.job_id,
            ),
        )
        admitted = []
        for request in ordered:
            if request.n_workers <= free_workers:
                admitted.append(request)
                free_workers -= request.n_workers
        return admitted


class BestFitScheduler(SchedulerPolicy):
    """Tightest-fit bin-packing with ASP-phase preemption.

    Exploits the protocol asymmetry the paper establishes in
    Section IV: BSP phases are barrier-synchronized (never shrunk)
    while ASP throughput scales ~linearly with workers, so only ASP
    tails are elastic enough to preempt.
    """

    name = "best-fit"
    preemptive = True

    def admit(self, queue, free_workers, scale, context=None):
        remaining = list(queue)
        admitted = []
        while remaining:
            fitting = [
                request
                for request in remaining
                if request.n_workers <= free_workers
            ]
            if not fitting:
                break
            # Tightest fit; ties go to the oldest request.
            best = min(
                fitting,
                key=lambda request: (
                    free_workers - request.n_workers,
                    request.arrival,
                    request.job_id,
                ),
            )
            admitted.append(best)
            free_workers -= best.n_workers
            remaining.remove(best)
        return admitted

    def preemption_request(self, queue, free_workers, scale, context=None):
        if not queue:
            return 0
        head = min(queue, key=lambda request: (request.arrival, request.job_id))
        wanted = max(head.n_workers - free_workers, 0)
        if context is not None:
            # The simulator frees at most the reclaimable surplus anyway;
            # capping here keeps the request honest without changing the
            # outcome (the churn guard still decides feasibility).
            wanted = min(wanted, context.preemptible)
        return wanted


class SloAwareScheduler(SchedulerPolicy):
    """Deadline/SLO-aware admission backed by the policy store.

    Implements the ROADMAP's deadline-aware admission on top of the
    paper's recurring-job economics: the predicted JCT of a tuned
    class is the search's measured Sync-Switch service time, while an
    un-tuned class falls back to the conservative all-BSP estimate
    (Section VI-C's safe default — BSP always reaches the target
    accuracy).  Per deadline job, :meth:`triage` then either

    * **rejects** it when even the prediction cannot meet the deadline
      (including deadlines already in the past at arrival), or
    * **degrades** an un-tuned Sync-Switch job to all-BSP — the only
      policy whose service time the conservative prediction actually
      vouches for — or
    * **admits** it as requested (tuned classes and deadline-free
      jobs).

    Admission order is earliest-deadline-first without head-of-line
    blocking; deadline-free jobs (and injected search trials) follow
    in arrival order.
    """

    name = "slo"

    def admit(self, queue, free_workers, scale, context=None):
        ordered = sorted(
            queue,
            key=lambda request: (
                request.deadline if request.deadline is not None else math.inf,
                request.arrival,
                request.job_id,
            ),
        )
        admitted = []
        for request in ordered:
            if request.n_workers <= free_workers:
                admitted.append(request)
                free_workers -= request.n_workers
        return admitted

    def triage(self, queue, free_workers, scale, context=None):
        context = context or SchedulerContext(scale=scale)
        rejected: list[JobRequest] = []
        degraded: set[int] = set()
        for request in queue:
            if request.deadline is None or request.kind != "train":
                continue
            predicted = self._predict(request, scale, context)
            # Feasibility boundary, pinned: a deadline strictly in the
            # past is always infeasible; a deadline exactly at ``now``
            # (e.g. ``deadline == arrival`` triaged on arrival) rejects
            # only when the predicted service is positive — a job that
            # would finish *exactly at* its deadline is admitted, and
            # ``met_deadline`` symmetrically counts ``finish ==
            # deadline`` as met.
            slack = request.deadline - context.now
            tracer = context.tracer
            if slack < 0.0 or predicted > slack:
                rejected.append(request)
                if tracer.enabled:
                    tracer.instant(
                        f"slo-reject job-{request.job_id}",
                        "scheduler",
                        context.now,
                        args={"predicted": predicted, "slack": slack},
                    )
                continue
            if request.tunable and not self._is_tuned(request, context):
                degraded.add(request.job_id)
                if tracer.enabled:
                    tracer.instant(
                        f"slo-degrade job-{request.job_id}",
                        "scheduler",
                        context.now,
                        args={"predicted": predicted, "slack": slack},
                    )
        return rejected, degraded

    @staticmethod
    def _predict(request, scale, context) -> float:
        """Predicted service time (store-backed, never raises).

        On a heterogeneous pool the prediction is stretched by the
        step-time slowdown of the workers the job would actually get
        (lowest-free-first placement): a deadline feasible on the fast
        tier can be infeasible when only edge workers are free.
        """
        if context.store is not None:
            predicted = context.store.predict_service(request, scale)
        else:
            predicted = estimate_service_time(
                request.setup_index, 100.0, scale, request.steps_scale
            )
        pool = context.pool
        if pool is not None:
            predicted *= pool.placement_slowdown(request.n_workers)
        return predicted

    @staticmethod
    def _is_tuned(request, context) -> bool:
        return (
            context.store is not None
            and context.store.lookup(JobClass.of(request)) is not None
        )


SCHEDULERS: dict[str, type[SchedulerPolicy]] = {
    policy.name: policy
    for policy in (
        FifoScheduler,
        SmallestJobFirstScheduler,
        BestFitScheduler,
        SloAwareScheduler,
    )
}


def make_scheduler(name: str) -> SchedulerPolicy:
    """Instantiate a scheduler by registry name."""
    if name not in SCHEDULERS:
        raise ConfigurationError(
            f"unknown scheduler {name!r}; known: {sorted(SCHEDULERS)}"
        )
    return SCHEDULERS[name]()
