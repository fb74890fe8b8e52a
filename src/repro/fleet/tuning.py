"""Algorithm 1 run as fleet jobs: the amortized in-fleet search.

Section VI-C's economics at fleet scale.  Admitting the *first*
Sync-Switch job of a recurring class (setup x cluster shape) launches
the search *as fleet jobs*: each trial queues, occupies workers, may be
preempted and counts toward JCT/utilization like any other job, and the
finished policy lands in the
:class:`~repro.fleet.policy_store.PolicyStore`, whose cached switch
timing every later recurrence of the class reuses while the store
accrues realized savings against the search cost.

The algorithm itself is
:func:`repro.core.search.binary_search.search_steps`, the same
coroutine the offline search drives in a closed loop, so the fleet
search inherits the cost accounting of the paper's Tables II/IV-VI.
Per searching class :class:`InFleetSearch` holds that coroutine, the
batch it last asked for and the outcomes reported for it so far;
trials report in completion order and the batch is sent back when the
last one has.
"""

from __future__ import annotations

from typing import Generator, NamedTuple

from repro.core.search.binary_search import (
    TWO_PHASE,
    SearchConfig,
    TrialBatch,
    search_steps,
)
from repro.distsim.result import TrainingResult
from repro.experiments.setups import SETUPS
from repro.fleet.policy_store import JobClass, PolicyStore, policy_from_search
from repro.fleet.workload import JobRequest
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER

__all__ = ["InFleetSearch"]

#: Acceptance band of the in-fleet search.  Wider than the offline
#: search's 0.01: fleet trials are single sessions trained under
#: shared-cluster contention, whose accuracy noise at the small fleet
#: scale exceeds the paper's multi-run band.
TUNE_BETA = 0.02


class _OpenSearch(NamedTuple):
    """One class's search in flight: the coroutine, the batch it is
    waiting for and that batch's outcomes so far, in completion order."""

    steps: Generator
    batch: TrialBatch
    outcomes: list[tuple[float, float]]


class InFleetSearch:
    """Algorithm 1 searches in flight inside one fleet run.

    The event loop reports "job admitted" / "trial finished" and
    enqueues the trial requests it gets back (ids from
    ``first_trial_id`` up).  ``runs`` is the paper's ``r`` (also the
    number of static-BSP target runs).  The search tunes the
    boundaries of ``protocols`` — the two-phase BSP -> ASP sequence
    when None — and its trial jobs, ``search-trial-done`` instants and
    installed policy all carry the ``(protocols, fractions)`` schedule.
    """

    def __init__(
        self,
        store: PolicyStore,
        runs: int,
        protocols: tuple[str, ...] | None,
        first_trial_id: int,
        tracer=NULL_TRACER,
        metrics=NULL_METRICS,
    ):
        self.store = store
        self.runs = runs
        self.sequences = TWO_PHASE if protocols is None else (protocols,)
        self.tracer = tracer
        self.metrics = metrics
        self._searches: dict[JobClass, _OpenSearch] = {}
        self._trial_class: dict[int, JobClass] = {}
        self._next_trial_id = first_trial_id

    @property
    def open_searches(self) -> int:
        """Searches begun and not yet finished."""
        return len(self._searches)

    def job_admitted(
        self, request: JobRequest, now: float
    ) -> tuple[JobRequest, ...]:
        """Launch Algorithm 1 for a class on its first admission.

        Returns the first batch of trial jobs to enqueue (empty when
        nothing starts).  Only Sync-Switch stream jobs are tunable
        (static BSP/ASP jobs have no switch point, and a job pinning
        its own schedule has nothing left to search) and each class
        searches exactly once.
        """
        if not request.tunable:
            return ()
        job_class = JobClass.of(request)
        if (
            self.store.lookup(job_class) is not None
            or self.store.is_searching(job_class)
        ):
            return ()
        setup = SETUPS[request.setup_index]
        steps = search_steps(
            SearchConfig(
                beta=TUNE_BETA,
                max_settings=setup.search_max_settings,
                runs_per_setting=self.runs,
                bsp_runs=self.runs,
            ),
            self.sequences,
        )
        self.store.begin_search(job_class)
        if self.tracer.enabled:
            self.tracer.instant(
                "search-begin",
                "search",
                now,
                args={
                    "setup": job_class.setup_index,
                    "n_workers": job_class.n_workers,
                },
            )
        self.metrics.inc("searches_started")
        # No target is supplied, so the opener batch always comes first.
        return self._open_batch(job_class, steps, next(steps), now)

    def trial_finished(
        self, job_id: int, result: TrainingResult, service_time: float, now: float
    ) -> tuple[JobRequest, ...]:
        """Feed one finished search trial back into its class's search.

        The trial's ``service_time`` (preemption stretches included) is
        charged to the search cost, like the paper charges whole
        sessions.  When the batch completes the search either asks for
        the next batch — returned for the caller to enqueue — or, once
        done, publishes the found policy to the store for every later
        recurrence to reuse.
        """
        job_class = self._trial_class.pop(job_id)
        search = self._searches[job_class]
        batch = search.batch
        accuracy = float(
            0.0 if result.diverged else (result.reported_accuracy or 0.0)
        )
        search.outcomes.append((accuracy, float(service_time)))
        awaiting = batch.count - len(search.outcomes)
        if self.tracer.enabled:
            self.tracer.instant(
                "search-trial-done",
                "search",
                now,
                args={
                    "protocols": "+".join(batch.protocols),
                    "fractions": list(batch.fractions),
                    "accuracy": accuracy,
                    "awaiting": awaiting,
                },
            )
        self.metrics.inc("search_trials_completed")
        if awaiting:
            return ()
        try:
            batch = search.steps.send(search.outcomes)
        except StopIteration as finished:
            found = finished.value
        else:
            return self._open_batch(job_class, search.steps, batch, now)
        del self._searches[job_class]
        policy = policy_from_search(job_class, found, tuned_at=now)
        self.store.install(policy)
        if self.tracer.enabled:
            self.tracer.instant(
                "search-complete",
                "search",
                now,
                args={"percent": policy.percent},
            )
        self.metrics.inc("policies_installed")
        return ()

    def _open_batch(
        self, job_class: JobClass, steps: Generator, batch: TrialBatch, now: float
    ) -> tuple[JobRequest, ...]:
        """Make ``batch`` the class's open one: a fleet job per session.

        Each trial carries the batch's full plan; its override pins
        the segment-0 share, so service estimates and reports see the
        familiar BSP percentage.
        """
        self._searches[job_class] = _OpenSearch(steps, batch, [])
        trials = []
        for _ in range(batch.count):
            trials.append(
                JobRequest(
                    job_id=self._next_trial_id,
                    arrival=now,
                    setup_index=job_class.setup_index,
                    n_workers=job_class.n_workers,
                    sync_policy="sync-switch",
                    kind="search-trial",
                    percent_override=batch.fractions[0] * 100.0,
                    protocols=batch.protocols,
                    fractions=batch.fractions,
                )
            )
            self._trial_class[self._next_trial_id] = job_class
            self._next_trial_id += 1
        return tuple(trials)
