"""Per-job-class timing-policy store with amortization accounting.

The paper's economic argument for the offline search (Section VI-C,
Tables II/IV-VI) is that DNN training jobs *recur*: the search is paid
once per job class and its cost is amortized across every later
recurrence, each of which saves ``T_BSP - T_policy`` over the
conservative all-BSP baseline.  This module gives the fleet layer that
bookkeeping:

* :class:`JobClass` — the recurrence key: workload setup + cluster
  shape (Table I rows are exactly such classes);
* :class:`ClassPolicy` — one searched timing policy with its measured
  baseline/tuned service times and total search cost, exposing the
  same derived quantities as
  :class:`~repro.core.search.cost_model.SearchCostReport` (search cost
  in BSP-session multiples, recurrences to break even);
* :class:`PolicyStore` — the fleet-wide cache: lookups for admission
  control, per-class realized-savings accounting as tuned recurrences
  complete, and the per-class rows of the
  ``results/fleet_tuning_summary.json`` artifact.

Break-even accounting matches the cost model exactly:
``amortized_recurrences = search_cost_x / (1 - T_policy / T_BSP)``
which is the same number as ``search_cost / (T_BSP - T_policy)``
recurrences — the tests pin this equivalence against a
:class:`~repro.core.search.cost_model.SearchCostSimulator` replay.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from repro.codec import coded, decode, encode, read_json, reject
from repro.core.search.binary_search import SearchResult
from repro.errors import FleetError
from repro.experiments.executor import atomic_write
from repro.fleet.workload import (
    FRACTIONS_RULE,
    PROTOCOLS_RULE,
    JobRequest,
    check_schedule,
    estimate_service_time,
)

__all__ = [
    "STORE_FORMAT_VERSION",
    "JobClass",
    "ClassPolicy",
    "PolicyStore",
    "policy_from_search",
]

#: On-disk payload version for persisted stores; bump on any breaking
#: change to the schema so stale files fail loudly at load time.
#: Version 2 added the N-segment schedule fields (``protocols`` /
#: ``fractions``).  A row without fractions (every version-1 row, and
#: ``"fractions": null`` in older version-2 files) loads as the N=2
#: schedule ``(percent / 100, 1 - percent / 100)``.
STORE_FORMAT_VERSION = 2

#: Oldest persisted payload version :meth:`PolicyStore.from_payload`
#: can still interpret.
_OLDEST_READABLE_VERSION = 1


@dataclass(frozen=True)
class JobClass:
    """The recurrence key: one workload setup on one cluster shape.

    Two jobs belong to the same class when they train the same Table-I
    setup with the same worker demand — exactly the condition under
    which the paper reuses a searched switch timing for a recurring
    job (Section VI-C).
    """

    setup_index: int
    n_workers: int

    @classmethod
    def of(cls, request: JobRequest) -> "JobClass":
        """The class a job request belongs to."""
        return cls(setup_index=request.setup_index, n_workers=request.n_workers)

    def label(self) -> str:
        """Short display key, e.g. ``exp1x8``."""
        return f"exp{self.setup_index}x{self.n_workers}"


@dataclass(frozen=True)
class ClassPolicy:
    """One searched timing policy and its measured economics.

    ``bsp_time`` and ``policy_time`` are *fleet-measured* service
    times (the search's static-BSP target runs and the sessions at the
    found switch point), so preemption stretches and shared-cluster
    contention are priced in, unlike the noise-free cost model.
    """

    job_class: JobClass
    percent: float
    target_accuracy: float
    bsp_time: float
    policy_time: float
    search_cost: float
    n_trials: int
    tuned_at: float
    #: The searched per-segment budget shares of ``protocols``;
    #: recurrences replay the full N-segment plan.
    fractions: tuple[float, ...]
    protocols: tuple[str, ...] = ("bsp", "asp")

    def schedule_label(self) -> str:
        """Display form of the protocol sequence, e.g. ``BSP -> ASP``."""
        return " -> ".join(name.upper() for name in self.protocols)

    @property
    def saving_per_recurrence(self) -> float:
        """Seconds one tuned recurrence saves over the all-BSP baseline."""
        return self.bsp_time - self.policy_time

    @property
    def search_cost_x(self) -> float:
        """Search cost in multiples of one static-BSP session (Table II)."""
        if self.bsp_time <= 0.0:
            return math.inf
        return self.search_cost / self.bsp_time

    @property
    def amortized_recurrences(self) -> float:
        """Recurrences to break even (Table II's *Amortized* column).

        ``search_cost_x / (1 - T_policy / T_BSP)`` — infinite when the
        found policy does not actually beat static BSP.
        """
        if self.bsp_time <= 0.0 or self.saving_per_recurrence <= 0.0:
            return math.inf
        return self.search_cost_x / (1.0 - self.policy_time / self.bsp_time)


def policy_from_search(
    job_class: JobClass, result: SearchResult, tuned_at: float
) -> ClassPolicy:
    """Fold a finished Algorithm 1 run into a :class:`ClassPolicy`.

    The baseline is the mean of the sessions that kept the full budget
    on the opener protocol (the static-BSP target runs of the two-phase
    search); the tuned time is the mean of the sessions trained at the
    winning schedule, falling back to the baseline when the winner is a
    degenerate all-opener schedule that only the target runs visited.
    """
    bsp_times = [
        trial.time for trial in result.trials if trial.switch_fraction == 1.0
    ]
    if not bsp_times:
        raise FleetError(
            f"search for {job_class.label()} trained no full-budget opener "
            "session; cannot price the baseline"
        )
    tuned_times = [
        trial.time
        for trial in result.trials
        if trial.protocols == result.protocols
        and trial.fractions == result.fractions
    ] or bsp_times
    return ClassPolicy(
        job_class=job_class,
        percent=result.switch_percent,
        target_accuracy=result.target_accuracy,
        bsp_time=sum(bsp_times) / len(bsp_times),
        policy_time=sum(tuned_times) / len(tuned_times),
        search_cost=result.search_time,
        n_trials=result.n_sessions,
        tuned_at=tuned_at,
        protocols=result.protocols,
        fractions=result.fractions,
    )


#: The :class:`ClassPolicy` fields a stored row carries under the same
#: name (everything but the class key, which a row spells out).
_POLICY_COLUMNS = tuple(
    spec.name for spec in fields(ClassPolicy) if spec.name != "job_class"
)


@dataclass(frozen=True, kw_only=True)
class _StoredClass:
    """One ``classes`` row of a store file: the class key, the policy's
    columns and the class's ledger state.

    A row without fractions (version 1 predates schedules) is the
    two-phase switch at ``percent`` and loads as that N=2 schedule.
    """

    setup_index: int = coded(min=0)
    n_workers: int = coded(min=1)
    protocols: tuple[str, ...] = coded(("bsp", "asp"), **PROTOCOLS_RULE)
    fractions: tuple[float, ...] | None = coded(None, **FRACTIONS_RULE)
    percent: float = coded(min=0.0, max=100.0)
    target_accuracy: float = coded(min=0.0, max=1.0)
    bsp_time: float = coded(min=0.0)
    policy_time: float = coded(min=0.0)
    search_cost: float = coded(min=0.0)
    n_trials: int = coded(min=0)
    tuned_at: float = coded(min=0.0)
    recurrences: int = coded(min=0)
    realized_savings: float
    breakeven_recurrence: int | None = coded(min=1)
    realized_service_sum: float = coded(min=0.0)
    realized_service_count: int = coded(min=0)

    def __post_init__(self):
        if self.fractions is None:
            if len(self.protocols) != 2:
                reject("", "fractions", "a list (null only with two protocols)", None)
            share = self.percent / 100.0
            object.__setattr__(self, "fractions", (share, 1.0 - share))
        check_schedule(self.protocols, self.fractions)


@dataclass(frozen=True)
class _StoreFile:
    """The object a store file holds."""

    version: int = coded(
        min=_OLDEST_READABLE_VERSION, max=STORE_FORMAT_VERSION
    )
    scale: float | None = coded(None, above=0.0)
    classes: tuple[_StoredClass, ...] = ()

    def __post_init__(self):
        keys = [(row.setup_index, row.n_workers) for row in self.classes]
        if len(set(keys)) != len(keys):
            reject("", "classes", "one row per job class", keys)


class PolicyStore:
    """Fleet-wide cache of searched timing policies, keyed by job class.

    The store is the amortization ledger of the paper's recurring-job
    argument (Section VI-C) lifted to fleet scale: the first admission
    of a class pays for the search, every later recurrence that reuses
    the cached policy accrues realized savings against that cost, and
    :meth:`report` exposes the per-class break-even state.
    """

    def __init__(self):
        self._policies: dict[JobClass, ClassPolicy] = {}
        self._searching: set[JobClass] = set()
        self._recurrences: dict[JobClass, int] = {}
        self._savings: dict[JobClass, float] = {}
        self._breakeven_at: dict[JobClass, int | None] = {}
        # Realized tuned service times (sum, count) per class: the
        # predicted-JCT feedback loop — fleet reality (queue-side
        # contention, elastic preemption stretches, re-simulated tails)
        # folds back into SLO admission predictions.
        self._realized_service: dict[JobClass, tuple[float, int]] = {}

    # ------------------------------------------------------------------
    # search lifecycle
    # ------------------------------------------------------------------
    def lookup(self, job_class: JobClass) -> ClassPolicy | None:
        """The cached policy for a class, or None while un-tuned."""
        return self._policies.get(job_class)

    def is_searching(self, job_class: JobClass) -> bool:
        """Whether a search for this class is currently in flight."""
        return job_class in self._searching

    def begin_search(self, job_class: JobClass) -> None:
        """Mark a class's search as launched (one search per class)."""
        if job_class in self._policies or job_class in self._searching:
            raise FleetError(
                f"class {job_class.label()} already tuned or searching"
            )
        self._searching.add(job_class)

    def install(self, policy: ClassPolicy) -> None:
        """Publish a finished search's policy for reuse."""
        if policy.job_class in self._policies:
            raise FleetError(
                f"class {policy.job_class.label()} already has a policy"
            )
        self._searching.discard(policy.job_class)
        self._policies[policy.job_class] = policy
        self._recurrences[policy.job_class] = 0
        self._savings[policy.job_class] = 0.0
        self._breakeven_at[policy.job_class] = None

    # ------------------------------------------------------------------
    # amortization ledger
    # ------------------------------------------------------------------
    def note_recurrence(self, job_class: JobClass, service_time: float) -> None:
        """Account one completed recurrence that reused the cached policy.

        Accrues ``T_BSP - service_time`` of realized savings (the
        recurrence would otherwise have trained conservatively at
        static BSP) and records the break-even recurrence the first
        time cumulative savings cover the search cost.
        """
        policy = self._policies.get(job_class)
        if policy is None:
            raise FleetError(
                f"class {job_class.label()} has no policy to recur on"
            )
        self._recurrences[job_class] += 1
        self._savings[job_class] += policy.bsp_time - service_time
        total, count = self._realized_service.get(job_class, (0.0, 0))
        self._realized_service[job_class] = (total + service_time, count + 1)
        if (
            self._breakeven_at[job_class] is None
            and self._savings[job_class] >= policy.search_cost
        ):
            self._breakeven_at[job_class] = self._recurrences[job_class]

    def recurrences(self, job_class: JobClass) -> int:
        """Completed recurrences that reused the class's policy."""
        return self._recurrences.get(job_class, 0)

    def realized_savings(self, job_class: JobClass) -> float:
        """Cumulative seconds saved versus the all-BSP baseline."""
        return self._savings.get(job_class, 0.0)

    def breakeven_recurrence(self, job_class: JobClass) -> int | None:
        """Recurrence at which savings first covered the search cost."""
        return self._breakeven_at.get(job_class)

    # ------------------------------------------------------------------
    # admission support
    # ------------------------------------------------------------------
    def predict_service(self, request: JobRequest, scale: float) -> float:
        """Predicted service time for SLO admission control.

        Tuned classes predict the mean *realized* tuned service time
        once recurrences have completed — the feedback loop that folds
        elastic preemption stretches and re-simulated tails back into
        admission — and the search's measured tuned service time before
        any recurrence exists.  Everything else — un-tuned classes,
        explicit static policies, search trials — falls back to the
        conservative all-BSP estimate.  Never raises for an unknown
        class: the SLO scheduler must stay usable before (or without)
        tuning.
        """
        if request.tunable:
            job_class = JobClass.of(request)
            policy = self._policies.get(job_class)
            if policy is not None:
                total, count = self._realized_service.get(
                    job_class, (0.0, 0)
                )
                if count > 0:
                    return total / count
                return policy.policy_time
        return estimate_service_time(
            request.setup_index, 100.0, scale, request.steps_scale
        )

    def realized_service_mean(self, job_class: JobClass) -> float | None:
        """Mean realized tuned service time (None before any recurrence)."""
        total, count = self._realized_service.get(job_class, (0.0, 0))
        return total / count if count > 0 else None

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> tuple[dict, ...]:
        """Per-class amortization rows for the fleet summary artifact.

        Infinite break-even counts (a policy that never beats BSP) are
        reported as ``None`` so the rows stay JSON-serializable.
        """
        rows = []
        for job_class in sorted(
            self._policies, key=lambda cls: (cls.setup_index, cls.n_workers)
        ):
            policy = self._policies[job_class]
            amortized = policy.amortized_recurrences
            rows.append(
                {
                    "job_class": job_class.label(),
                    "setup_index": job_class.setup_index,
                    "n_workers": job_class.n_workers,
                    "schedule": policy.schedule_label(),
                    "fractions": list(policy.fractions),
                    "percent": policy.percent,
                    "target_accuracy": policy.target_accuracy,
                    "bsp_time_s": policy.bsp_time,
                    "policy_time_s": policy.policy_time,
                    "search_cost_s": policy.search_cost,
                    "search_cost_x": (
                        None
                        if math.isinf(policy.search_cost_x)
                        else policy.search_cost_x
                    ),
                    "amortized_recurrences": (
                        None if math.isinf(amortized) else amortized
                    ),
                    "n_trials": policy.n_trials,
                    "tuned_at_s": policy.tuned_at,
                    "recurrences": self._recurrences[job_class],
                    "realized_savings_s": self._savings[job_class],
                    "breakeven_recurrence": self._breakeven_at[job_class],
                    "realized_service_mean_s": self.realized_service_mean(
                        job_class
                    ),
                }
            )
        return tuple(rows)

    # ------------------------------------------------------------------
    # persistence (warm-starting recurring classes across fleet runs)
    # ------------------------------------------------------------------
    def _rows(self) -> tuple[_StoredClass, ...]:
        """Every policy with its ledger state, in class order."""
        rows = []
        for job_class in sorted(
            self._policies, key=lambda cls: (cls.setup_index, cls.n_workers)
        ):
            policy = self._policies[job_class]
            total, count = self._realized_service.get(job_class, (0.0, 0))
            rows.append(
                _StoredClass(
                    **vars(job_class),
                    **{name: getattr(policy, name) for name in _POLICY_COLUMNS},
                    recurrences=self._recurrences[job_class],
                    realized_savings=self._savings[job_class],
                    breakeven_recurrence=self._breakeven_at[job_class],
                    realized_service_sum=total,
                    realized_service_count=count,
                )
            )
        return tuple(rows)

    @classmethod
    def _from_rows(cls, rows: tuple[_StoredClass, ...]) -> "PolicyStore":
        """A store holding each row's policy and ledger state."""
        store = cls()
        for row in rows:
            job_class = JobClass(row.setup_index, row.n_workers)
            store.install(
                ClassPolicy(
                    job_class=job_class,
                    **{name: getattr(row, name) for name in _POLICY_COLUMNS},
                )
            )
            store._recurrences[job_class] = row.recurrences
            store._savings[job_class] = row.realized_savings
            store._breakeven_at[job_class] = row.breakeven_recurrence
            if row.realized_service_count > 0:
                store._realized_service[job_class] = (
                    row.realized_service_sum, row.realized_service_count
                )
        return store

    def to_payload(self, scale: float | None = None) -> dict:
        """JSON-serializable snapshot of policies and ledger state.

        In-flight searches are deliberately *not* persisted: a search
        only exists inside one fleet run's event loop, so a reloaded
        store treats the class as un-tuned and searches again.

        ``scale`` stamps the step-budget scale the times were measured
        at: absolute service times are only comparable within one
        scale, so loading checks it (see :meth:`from_payload`).
        """
        return encode(_StoreFile(STORE_FORMAT_VERSION, scale, self._rows()))

    @classmethod
    def from_payload(
        cls,
        payload: dict,
        scale: float | None = None,
        where: str = "policy-store payload",
    ) -> "PolicyStore":
        """Rebuild a store from :meth:`to_payload`.

        The table checks the payload version and every row; when both
        sides declare one, the step-budget scale must match too: a
        store measured at one ``--scale`` must not warm-start
        predictions at another (the absolute service times would be in
        different units).  ``where`` names the source in error lines.
        """
        stored = decode(_StoreFile, payload, where)
        if scale is not None and stored.scale not in (None, scale):
            reject(
                where, "scale",
                f"{scale:g}, the scale of this run (service times are not "
                "comparable across scales — use a separate store per scale)",
                stored.scale,
            )
        return cls._from_rows(stored.classes)

    def save(self, path: str | Path, scale: float | None = None) -> Path:
        """Persist the store as JSON (for ``fleet --policy-store``).

        Atomic, like the result cache: an interrupted run leaves the
        previous store, never a half-written one the next run rejects.
        """
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(self.to_payload(scale=scale), indent=2) + "\n"
        atomic_write(target, lambda handle: handle.write(text))
        return target

    @classmethod
    def load(cls, path: str | Path, scale: float | None = None) -> "PolicyStore":
        """Load a persisted store (raises ``ConfigurationError`` on a
        missing/corrupt file, an unsupported payload version, or a
        step-budget scale mismatch)."""
        where = f"policy store {path}"
        return cls.from_payload(read_json(path, where), scale=scale, where=where)
