"""Incremental Algorithm 1: the timing search driven by fleet jobs.

The offline search (paper Appendix B, reproduced in
:class:`~repro.core.search.binary_search.OfflineTimingSearch`) is a
closed loop: it *calls* a trial runner and blocks until each training
session returns.  Inside the fleet simulator a search trial is itself a
fleet job — it queues, occupies workers, may be preempted, and finishes
at some later simulated time — so the search must be driven the other
way around: the simulator asks for the next batch of candidate
sessions, admits them as jobs, and reports their outcomes as they
complete.

:class:`TimingSearchSession` is that inversion.  It holds the state of
one Algorithm 1 run (target accuracy, binary-search bounds, explored
settings) and exposes a two-call protocol:

* :meth:`next_batch` — the switch fractions of the sessions to train
  next (the ``R`` static-BSP target runs first, then ``r`` repetitions
  per candidate setting);
* :meth:`record` — one finished trial's ``(accuracy, time)``; when the
  whole batch has reported, the bounds advance exactly like
  Algorithm 1 lines 6-16.

Given the same per-trial outcomes, a session produces a
:class:`~repro.core.search.binary_search.SearchResult` identical to
:class:`OfflineTimingSearch` — the equivalence is covered by tests —
so the fleet-scale search inherits the cost accounting of the paper's
Tables II/IV-VI.

:class:`InFleetSearch` drives those sessions for one fleet run —
Section VI-C's economics at fleet scale.  Admitting the *first*
Sync-Switch job of a recurring class (setup x cluster shape) launches
the search *as fleet jobs*: each trial queues, occupies workers and
counts toward JCT/utilization like any other job, and the finished
policy lands in the :class:`~repro.fleet.policy_store.PolicyStore`,
whose cached switch timing every later recurrence of the class reuses
while the store accrues realized savings against the search cost.
"""

from __future__ import annotations

from repro.core.search.binary_search import (
    ScheduleCandidate,
    ScheduleSearchResult,
    ScheduleTrialOutcome,
    SearchConfig,
    SearchResult,
    TrialOutcome,
    boundary_fractions,
    pick_best_schedule,
    validate_sequences,
)
from repro.distsim.result import TrainingResult
from repro.errors import SearchError
from repro.experiments.setups import SETUPS
from repro.fleet.policy_store import (
    JobClass,
    PolicyStore,
    policy_from_schedule_search,
    policy_from_search,
)
from repro.fleet.workload import JobRequest
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER

__all__ = ["InFleetSearch", "ScheduleSearchSession", "TimingSearchSession"]

#: Acceptance band of the in-fleet search.  Wider than the offline
#: search's 0.01: fleet trials are single sessions trained under
#: shared-cluster contention, whose accuracy noise at the small fleet
#: scale exceeds the paper's multi-run band.
TUNE_BETA = 0.02


class TimingSearchSession:
    """One in-flight Algorithm 1 search, advanced by trial completions.

    The session is deterministic given the sequence of recorded
    outcomes: trials within a batch all train the same switch fraction,
    so the order completions are reported in does not matter.
    """

    def __init__(self, config: SearchConfig):
        self.config = config
        self._target = config.target_accuracy
        self._upper = 1.0
        self._lower = 0.0
        self._settings_done = 0
        self._trials: list[TrialOutcome] = []
        self._phase = "bsp" if self._target is None else "candidates"
        self._batch_fraction: float | None = None
        self._outstanding = 0
        self._batch_results: list[tuple[float, float]] = []
        # Observability sink; the fleet installs its tracer so trial
        # completions land on the timeline (never affects the search).
        self.tracer = NULL_TRACER

    @property
    def done(self) -> bool:
        """Whether all ``max_settings`` settings have been explored."""
        return self._phase == "done"

    @property
    def awaiting(self) -> int:
        """Trials of the current batch not yet reported."""
        return self._outstanding

    @property
    def target_accuracy(self) -> float | None:
        """The search target ``A`` (None until the BSP runs finish)."""
        return self._target

    def next_batch(self) -> tuple[float, ...]:
        """Switch fractions of the sessions to train next.

        Returns the BSP target batch (all at fraction 1.0) first when
        no target accuracy was supplied, then one batch per binary
        search setting; an empty tuple once the search is done.
        """
        if self._phase == "done":
            return ()
        if self._outstanding:
            raise SearchError("previous batch still has outstanding trials")
        if self._phase == "bsp":
            count = self.config.bsp_runs
            self._batch_fraction = 1.0
        else:
            count = self.config.runs_per_setting
            self._batch_fraction = (self._upper + self._lower) / 2.0
        self._outstanding = count
        self._batch_results = []
        return (self._batch_fraction,) * count

    def record(self, accuracy: float, time: float, now: float | None = None) -> None:
        """Report one finished trial of the current batch.

        ``accuracy`` is the converged accuracy (0.0 for diverged runs)
        and ``time`` the session's training time — in the fleet, its
        service time, so preemption stretches are charged to the
        search cost like the paper charges full sessions.  ``now`` is
        an optional fleet timestamp used only for tracing.
        """
        if self._outstanding <= 0:
            raise SearchError("no outstanding trial to record")
        self._outstanding -= 1
        self._batch_results.append((float(accuracy), float(time)))
        if now is not None and self.tracer.enabled:
            self.tracer.instant(
                "search-trial-done",
                "search",
                now,
                args={
                    "fraction": self._batch_fraction,
                    "accuracy": float(accuracy),
                    "awaiting": self._outstanding,
                },
            )
        if self._outstanding == 0:
            self._advance()

    def result(self) -> SearchResult:
        """The finished search (Algorithm 1's found timing policy)."""
        if not self.done:
            raise SearchError("search has not finished")
        result = SearchResult(
            switch_fraction=self._upper, target_accuracy=self._target
        )
        result.trials = list(self._trials)
        return result

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Fold the completed batch into the Algorithm 1 state."""
        fraction = self._batch_fraction
        mean_accuracy = sum(
            accuracy for accuracy, _ in self._batch_results
        ) / len(self._batch_results)
        if self._phase == "bsp":
            # Algorithm 1 lines 2-5: the target is the mean static-BSP
            # accuracy; the target runs count toward search cost.
            self._target = mean_accuracy
            for run, (accuracy, time) in enumerate(self._batch_results):
                self._trials.append(
                    TrialOutcome(1.0, run, accuracy, time, valid=True)
                )
            self._phase = "candidates"
            return
        for run, (accuracy, time) in enumerate(self._batch_results):
            self._trials.append(
                TrialOutcome(
                    fraction,
                    run,
                    accuracy,
                    time,
                    valid=abs(accuracy - self._target) <= self.config.beta,
                )
            )
        # Lines 11-15: a good-enough candidate becomes the new upper
        # bound (try switching even earlier), otherwise the lower.
        if abs(mean_accuracy - self._target) <= self.config.beta:
            self._upper = fraction
        else:
            self._lower = fraction
        self._settings_done += 1
        if self._settings_done >= self.config.max_settings:
            self._phase = "done"


class ScheduleSearchSession:
    """One in-flight N-segment schedule search, advanced by completions.

    The inverted-control twin of
    :class:`~repro.core.search.binary_search.ScheduleSearch`: the same
    coordinate descent over per-boundary switch fractions, one
    Algorithm 1 halving run per schedule boundary, but batches are
    handed out through :meth:`next_batch` and folded back in through
    :meth:`record` so the fleet can train trials as ordinary jobs.
    Given the same per-trial outcomes it reports the same trials and
    the same found schedule — covered by tests — and with a single
    two-protocol sequence its batches are the fraction vectors
    ``(f, 1-f)`` of the two-phase :class:`TimingSearchSession`.
    """

    def __init__(self, config: SearchConfig, sequences=(("bsp", "asp"),)):
        self.config = config
        self.sequences = validate_sequences(sequences)
        self._target = config.target_accuracy
        self._opener_time: float | None = None
        self._trials: list[ScheduleTrialOutcome] = []
        self._finals: list[tuple[float, ...]] = []
        self._phase = "bsp" if self._target is None else "candidates"
        self._seq_index = 0
        self._boundaries: list[float] = []
        self._boundary_index = 0
        self._lower = 0.0
        self._upper = 1.0
        self._settings_done = 0
        self._batch_protocols = self.sequences[0]
        self._batch_vector: tuple[float, ...] | None = None
        self._batch_candidate: float | None = None
        self._outstanding = 0
        self._batch_results: list[tuple[float, float]] = []
        self.tracer = NULL_TRACER
        if self._phase == "candidates":
            self._begin_sequence(0)

    @property
    def done(self) -> bool:
        """Whether every candidate sequence has been searched."""
        return self._phase == "done"

    @property
    def awaiting(self) -> int:
        """Trials of the current batch not yet reported."""
        return self._outstanding

    @property
    def target_accuracy(self) -> float | None:
        """The search target ``A`` (None until the opener runs finish)."""
        return self._target

    @property
    def protocols(self) -> tuple[str, ...]:
        """Protocol sequence trained by the current batch's trials."""
        return self._batch_protocols

    def next_batch(self) -> tuple[tuple[float, ...], ...]:
        """Per-segment fraction vectors of the sessions to train next.

        The opener-protocol target batch (the full budget on segment 0)
        comes first when no target accuracy was supplied, then one
        batch per halving setting of the boundary under search; an
        empty tuple once the search is done.
        """
        if self._phase == "done":
            return ()
        if self._outstanding:
            raise SearchError("previous batch still has outstanding trials")
        if self._phase == "bsp":
            count = self.config.bsp_runs
            opener = self.sequences[0]
            self._batch_protocols = opener
            self._batch_vector = boundary_fractions([1.0] * (len(opener) - 1))
        else:
            count = self.config.runs_per_setting
            self._batch_candidate = (self._upper + self._lower) / 2.0
            probe = list(self._boundaries)
            probe[self._boundary_index] = self._batch_candidate
            self._batch_protocols = self.sequences[self._seq_index]
            self._batch_vector = boundary_fractions(probe)
        self._outstanding = count
        self._batch_results = []
        return (self._batch_vector,) * count

    def record(self, accuracy: float, time: float, now: float | None = None) -> None:
        """Report one finished trial of the current batch.

        ``now`` is an optional fleet timestamp used only for tracing.
        """
        if self._outstanding <= 0:
            raise SearchError("no outstanding trial to record")
        self._outstanding -= 1
        self._batch_results.append((float(accuracy), float(time)))
        if now is not None and self.tracer.enabled:
            self.tracer.instant(
                "search-trial-done",
                "search",
                now,
                args={
                    "protocols": "+".join(self._batch_protocols),
                    "accuracy": float(accuracy),
                    "awaiting": self._outstanding,
                },
            )
        if self._outstanding == 0:
            self._advance()

    def result(self) -> ScheduleSearchResult:
        """The finished search (fastest found schedule across sequences)."""
        if not self.done:
            raise SearchError("search has not finished")
        best, prices = pick_best_schedule(
            self.sequences, self._finals, self._trials, self._opener_time
        )
        result = ScheduleSearchResult(
            protocols=self.sequences[best],
            fractions=self._finals[best],
            target_accuracy=self._target,
            expected_time=prices[best],
            candidates=tuple(
                ScheduleCandidate(sequence, self._finals[index], prices[index])
                for index, sequence in enumerate(self.sequences)
            ),
        )
        result.trials = list(self._trials)
        return result

    # ------------------------------------------------------------------
    def _begin_sequence(self, index: int) -> None:
        """Open the boundary search of sequence ``index``.

        Single-protocol sequences have no boundary to search: their
        schedule is the full budget on the one segment, finalized
        immediately.
        """
        while index < len(self.sequences):
            sequence = self.sequences[index]
            if len(sequence) > 1:
                self._seq_index = index
                self._boundaries = [1.0] * (len(sequence) - 1)
                self._boundary_index = 0
                self._lower = 0.0
                self._upper = 1.0
                self._settings_done = 0
                return
            self._finals.append(boundary_fractions([]))
            index += 1
        self._phase = "done"

    def _advance(self) -> None:
        """Fold the completed batch into the coordinate-descent state."""
        vector = self._batch_vector
        results = self._batch_results
        mean_accuracy = sum(accuracy for accuracy, _ in results) / len(results)
        if self._phase == "bsp":
            self._target = mean_accuracy
            self._opener_time = sum(time for _, time in results) / len(results)
            for run, (accuracy, time) in enumerate(results):
                self._trials.append(
                    ScheduleTrialOutcome(
                        self.sequences[0], vector, run, accuracy, time,
                        valid=True,
                    )
                )
            self._phase = "candidates"
            self._begin_sequence(0)
            return
        sequence = self.sequences[self._seq_index]
        for run, (accuracy, time) in enumerate(results):
            self._trials.append(
                ScheduleTrialOutcome(
                    sequence,
                    vector,
                    run,
                    accuracy,
                    time,
                    valid=abs(accuracy - self._target) <= self.config.beta,
                )
            )
        if abs(mean_accuracy - self._target) <= self.config.beta:
            self._upper = self._batch_candidate
        else:
            self._lower = self._batch_candidate
        self._settings_done += 1
        if self._settings_done < self.config.max_settings:
            return
        self._boundaries[self._boundary_index] = self._upper
        self._boundary_index += 1
        if self._boundary_index < len(self._boundaries):
            self._lower = self._boundaries[self._boundary_index - 1]
            self._upper = 1.0
            self._settings_done = 0
        else:
            self._finals.append(boundary_fractions(self._boundaries))
            self._begin_sequence(self._seq_index + 1)


class InFleetSearch:
    """Algorithm 1 searches in flight inside one fleet run.

    The event loop reports "job admitted" / "trial finished" and
    enqueues the trial requests it gets back (ids from
    ``first_trial_id`` up).  ``runs`` is the paper's ``r`` (also the
    number of static-BSP target runs); with ``protocols`` set the
    search is the N-segment schedule search over that sequence's
    boundaries, otherwise the two-phase Algorithm 1.
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
        self.protocols = protocols
        self.tracer = tracer
        self.metrics = metrics
        self._sessions: dict[
            JobClass, TimingSearchSession | ScheduleSearchSession
        ] = {}
        self._trial_class: dict[int, JobClass] = {}
        self._next_trial_id = first_trial_id

    @property
    def open_searches(self) -> int:
        """Searches begun and not yet finished."""
        return len(self._sessions)

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
        if request.kind != "train" or request.sync_policy != "sync-switch":
            return ()
        if request.percent_override is not None or request.protocols is not None:
            return ()
        job_class = JobClass.of(request)
        if (
            self.store.lookup(job_class) is not None
            or self.store.is_searching(job_class)
        ):
            return ()
        setup = SETUPS[request.setup_index]
        search_config = SearchConfig(
            beta=TUNE_BETA,
            max_settings=setup.search_max_settings,
            runs_per_setting=self.runs,
            bsp_runs=self.runs,
        )
        if self.protocols is not None:
            session = ScheduleSearchSession(
                search_config, sequences=(self.protocols,)
            )
        else:
            session = TimingSearchSession(search_config)
        session.tracer = self.tracer
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
        self._sessions[job_class] = session
        return self._next_trials(job_class, session, now)

    def trial_finished(
        self, job_id: int, result: TrainingResult, service_time: float, now: float
    ) -> tuple[JobRequest, ...]:
        """Feed one finished search trial back into its session.

        The trial's ``service_time`` (preemption stretches included) is
        charged to the search cost, like the paper charges whole
        sessions.  When the batch completes the session either emits
        the next batch — returned for the caller to enqueue — or, once
        done, publishes the found policy to the store for every later
        recurrence to reuse.
        """
        job_class = self._trial_class.pop(job_id)
        session = self._sessions[job_class]
        accuracy = (
            0.0 if result.diverged else (result.reported_accuracy or 0.0)
        )
        session.record(accuracy, service_time, now=now)
        self.metrics.inc("search_trials_completed")
        if session.awaiting:
            return ()
        if not session.done:
            return self._next_trials(job_class, session, now)
        del self._sessions[job_class]
        if isinstance(session, ScheduleSearchSession):
            policy = policy_from_schedule_search(
                job_class, session.result(), tuned_at=now
            )
        else:
            policy = policy_from_search(
                job_class, session.result(), tuned_at=now
            )
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

    def _next_trials(
        self, job_class: JobClass, session, now: float
    ) -> tuple[JobRequest, ...]:
        """The session's next batch of trials, as fleet jobs.

        Two-phase sessions hand out switch fractions; schedule sessions
        hand out per-segment fraction vectors, which ride on the trial
        request's ``protocols``/``fractions`` fields (the override
        still pins the segment-0 share so service estimates and reports
        see the familiar BSP percentage).
        """
        trials = []
        for item in session.next_batch():
            vector = item if isinstance(item, tuple) else None
            share = item if vector is None else vector[0]
            trials.append(
                JobRequest(
                    job_id=self._next_trial_id,
                    arrival=now,
                    setup_index=job_class.setup_index,
                    n_workers=job_class.n_workers,
                    sync_policy="sync-switch",
                    kind="search-trial",
                    percent_override=share * 100.0,
                    protocols=None if vector is None else session.protocols,
                    fractions=vector,
                )
            )
            self._trial_class[self._next_trial_id] = job_class
            self._next_trial_id += 1
        return tuple(trials)
