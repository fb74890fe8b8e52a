"""Fleet workloads: job arrival streams, traces and named scenarios.

The paper's cost-amortization argument (Section VI-C) is about
*recurring jobs on shared clusters*: the same training workloads keep
arriving and the cluster serves them concurrently.  This module
describes that traffic:

* :class:`JobRequest` — one training job in the stream (arrival time,
  workload setup, worker demand, synchronization policy);
* :func:`poisson_stream` — Poisson arrivals over a scenario's workload
  mix (deterministic given a seed);
* :func:`load_trace` / :func:`save_trace` — synthetic trace files so
  fleet experiments can be replayed exactly;
* :data:`FLEET_SCENARIOS` — named contention scenarios (pool size,
  stream length and offered load) used by the CLI, the experiment
  driver and the benchmark.

Arrival rates are expressed relative to the *estimated Sync-Switch
service time* of the scenario's first workload, so a scenario keeps the
same contention level at any ``REPRO_SCALE``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from repro.codec import coded, decode, encode, read_json, reject, validate
from repro.distsim.engines import known_protocols
from repro.distsim.timing import timing_for
from repro.errors import ConfigurationError
from repro.experiments.setups import SETUPS, scaled_job, scaled_steps
from repro.rng import child_rng

__all__ = [
    "JOB_KINDS",
    "SYNC_POLICIES",
    "JobRequest",
    "FleetScenario",
    "FLEET_SCENARIOS",
    "TenantTier",
    "TraceScenario",
    "TRACE_SCENARIOS",
    "DEFAULT_TENANT_TIERS",
    "assign_shards",
    "bounded_pareto",
    "check_schedule",
    "resolve_percent",
    "estimate_service_time",
    "poisson_stream",
    "trace_stream",
    "load_trace",
    "save_trace",
]

#: Fleet-level synchronization policies: every job in a stream trains
#: under one of these (the fleet artifact compares all three).
SYNC_POLICIES = ("bsp", "asp", "sync-switch")

#: Job kinds inside a fleet: ``train`` jobs come from the workload
#: stream; ``search-trial`` jobs are the Algorithm 1 sessions the
#: tuning layer injects when the first job of a recurring class is
#: admitted (Section VI-C's amortized search, run as fleet jobs).
JOB_KINDS = ("train", "search-trial")

#: Table rules of a pinned schedule's two halves, shared with the
#: policy store's rows (one share in [0, 1] per known protocol).
PROTOCOLS_RULE = {"nonempty": True, "items": {"choices": known_protocols}}
FRACTIONS_RULE = {"nonempty": True, "items": {"min": 0.0, "max": 1.0}}


def check_schedule(protocols: tuple, fractions: tuple) -> None:
    """Cross-field rules of a schedule: a share per protocol, summing to 1."""
    if len(protocols) != len(fractions):
        reject("", "fractions", f"{len(protocols)} shares", fractions)
    if abs(sum(fractions) - 1.0) > 1e-9:
        reject("", "fractions", "shares summing to 1", fractions)


def resolve_percent(setup_index: int, sync_policy: str) -> float:
    """BSP percentage implied by ``sync_policy`` for one setup.

    ``bsp`` trains 100% BSP, ``asp`` 0%, and ``sync-switch`` uses the
    setup's Table-I switch point.
    """
    if setup_index not in SETUPS:
        raise ConfigurationError(f"unknown setup index {setup_index}")
    if sync_policy == "bsp":
        return 100.0
    if sync_policy == "asp":
        return 0.0
    if sync_policy == "sync-switch":
        return SETUPS[setup_index].policy_percent
    raise ConfigurationError(
        f"unknown sync policy {sync_policy!r}; known: {SYNC_POLICIES}"
    )


@dataclass(frozen=True)
class JobRequest:
    """One training job arriving at the fleet.

    A member of the recurring streams that Section VI-C's
    amortization economics argue about; its class (setup index x
    worker demand) is the recurrence key of the policy store.

    ``deadline`` is the absolute simulated time by which the job must
    finish for its SLO to hold (None = no deadline; only the
    ``slo`` scheduler enforces them).  A deadline *earlier* than the
    arrival is legal — it states an SLO that is already blown when the
    job shows up, and the SLO scheduler rejects such jobs on arrival.
    ``percent_override`` pins the BSP percentage regardless of the
    sync policy (used by injected search trials); ``kind`` separates
    stream jobs from the tuning layer's search trials.

    ``protocols``/``fractions`` (always set together) pin a full
    N-segment protocol schedule instead of the two-phase switch —
    schedule-search trials and recurrences of schedule-tuned classes
    carry them; plain two-phase jobs (and every pre-existing trace)
    leave both None.

    ``tier`` names the tenant tier a trace-generated job belongs to
    (None for scenario streams and hand-written traces — tierless jobs
    aggregate under the summary's tierless bucket), and ``steps_scale``
    is the job's heavy-tailed size multiplier on the setup's step
    budget (1.0 = the setup's regular scaled budget; see
    :func:`repro.experiments.setups.scaled_steps`).
    """

    job_id: int = coded(min=0)
    arrival: float = coded(min=0)
    setup_index: int = coded(1, choices=SETUPS)
    n_workers: int = coded(8, min=1)
    sync_policy: str = coded("sync-switch", choices=SYNC_POLICIES)
    deadline: float | None = coded(None, above=0)
    kind: str = coded("train", choices=JOB_KINDS)
    percent_override: float | None = coded(None, min=0.0, max=100.0)
    protocols: tuple[str, ...] | None = coded(None, **PROTOCOLS_RULE)
    fractions: tuple[float, ...] | None = coded(None, **FRACTIONS_RULE)
    tier: str | None = coded(None, nonempty=True)
    steps_scale: float = coded(1.0, above=0)

    def __post_init__(self):
        # A trace file can put anything in any field: the table first,
        # then the rules that span two fields.
        validate(self)
        if (self.protocols is None) != (self.fractions is None):
            reject(
                "", "fractions", "protocols and fractions given together",
                self.fractions,
            )
        if self.protocols is not None:
            object.__setattr__(self, "protocols", tuple(self.protocols))
            object.__setattr__(
                self, "fractions", tuple(float(v) for v in self.fractions)
            )
            check_schedule(self.protocols, self.fractions)

    @property
    def tunable(self) -> bool:
        """Whether the policy store picks this job's schedule: a
        Sync-Switch stream job that pins neither a BSP percentage nor
        a schedule of its own."""
        return (
            self.kind == "train"
            and self.sync_policy == "sync-switch"
            and self.percent_override is None
            and self.protocols is None
        )

    @property
    def percent(self) -> float:
        """Resolved BSP percentage: the override, else the policy's."""
        if self.percent_override is not None:
            return self.percent_override
        return resolve_percent(self.setup_index, self.sync_policy)

    def to_dict(self) -> dict:
        """Plain-python dict for trace files and cache keys."""
        return encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobRequest":
        """Inverse of :meth:`to_dict`.

        Pre-schedule traces simply lack the ``protocols``/``fractions``
        keys and load as two-phase jobs; pre-trace-scale payloads lack
        ``tier``/``steps_scale`` and load as tierless unit-size jobs.
        """
        return decode(cls, data, "job request")


@dataclass(frozen=True)
class FleetScenario:
    """A named contention scenario for the fleet simulator.

    Scenarios instantiate the paper's "recurring jobs on a shared
    cluster" setting (Section VI-C) at different offered loads;
    ``recurring`` is the amortization showcase and ``deadline`` the
    SLO-admission one.

    ``interarrival_factor`` scales the mean inter-arrival gap relative
    to the estimated Sync-Switch service time of ``setup_mix[0]``:
    below ~``demand / pool_size`` the cluster queues, above it the
    stream is mostly uncontended.

    ``deadline_factor``, when set, attaches an SLO to every generated
    job: its deadline is ``arrival + factor x estimated Sync-Switch
    service time`` of its own setup, so a factor well above the
    BSP/Sync-Switch speedup is loose for everyone while a factor near
    1 is only attainable by the fast policy.
    """

    name: str
    description: str
    pool_size: int
    n_jobs: int
    interarrival_factor: float
    setup_mix: tuple[int, ...] = (1,)
    deadline_factor: float | None = None

    def __post_init__(self):
        if self.pool_size <= 0 or self.n_jobs <= 0:
            raise ConfigurationError("pool_size and n_jobs must be positive")
        if self.interarrival_factor < 0:
            raise ConfigurationError("interarrival_factor must be >= 0")
        if self.deadline_factor is not None and self.deadline_factor <= 0:
            raise ConfigurationError("deadline_factor must be positive")
        for index in self.setup_mix:
            if index not in SETUPS:
                raise ConfigurationError(f"unknown setup index {index}")
            if SETUPS[index].n_workers > self.pool_size:
                raise ConfigurationError(
                    f"setup {index} demands {SETUPS[index].n_workers} workers "
                    f"but the pool only has {self.pool_size}"
                )


FLEET_SCENARIOS: dict[str, FleetScenario] = {
    "light": FleetScenario(
        name="light",
        description="spacious pool, slow arrivals: little to no queueing",
        pool_size=24,
        n_jobs=4,
        interarrival_factor=1.5,
    ),
    "rush": FleetScenario(
        name="rush",
        description="two job slots, arrivals faster than service: queueing",
        pool_size=16,
        n_jobs=6,
        interarrival_factor=0.3,
    ),
    "surge": FleetScenario(
        name="surge",
        description="single job slot, near-simultaneous arrivals",
        pool_size=8,
        n_jobs=5,
        interarrival_factor=0.05,
    ),
    "mixed": FleetScenario(
        name="mixed",
        description="ResNet32 and ResNet50 jobs sharing a mid-size pool",
        pool_size=24,
        n_jobs=8,
        interarrival_factor=0.5,
        setup_mix=(1, 2),
    ),
    "heavy": FleetScenario(
        name="heavy",
        description="8- and 16-worker jobs mixed: elasticity and preemption",
        pool_size=24,
        n_jobs=6,
        interarrival_factor=0.25,
        setup_mix=(1, 1, 3),
    ),
    "recurring": FleetScenario(
        name="recurring",
        description="long stream of one recurring class: search amortization",
        pool_size=16,
        n_jobs=16,
        interarrival_factor=2.0,
    ),
    "deadline": FleetScenario(
        name="deadline",
        description="rush-like stream where every job carries an SLO deadline",
        pool_size=16,
        n_jobs=6,
        interarrival_factor=0.4,
        # Above the ~4.6x conservative BSP/Sync-Switch estimate ratio:
        # an un-tuned (all-BSP-degraded) job is feasible when admitted
        # promptly, but queueing under the 0.4 offered load causes
        # misses that only the tuned fast policy avoids.
        deadline_factor=6.0,
    ),
}


@lru_cache(maxsize=None)
def estimate_service_time(
    setup_index: int, percent: float, scale: float, steps_scale: float = 1.0
) -> float:
    """Rough simulated duration of one job (no queueing, no stragglers).

    Mirrors the BSP-phase estimate the experiment runner uses: BSP
    rounds cost the mean per-batch compute plus the barrier, ASP steps
    drain at roughly ``compute / n_workers`` per update.
    ``steps_scale`` sizes the estimate for heavy-tailed trace jobs
    (same floor logic as the job the fleet actually trains).  Cached:
    the sharded trace path calls this once per generated job for
    deadlines, horizons and scheduler estimates.
    """
    setup = SETUPS[setup_index]
    job = scaled_job(setup, scale, 0)
    timing = timing_for(setup.model)
    n = setup.n_workers
    total_steps = (
        job.total_steps
        if steps_scale == 1.0
        else scaled_steps(setup, scale, steps_scale)
    )
    bsp_steps = percent / 100.0 * total_steps
    asp_steps = total_steps - bsp_steps
    bsp_round = timing.mean_compute_time(job.batch_size) * 1.3 + (
        timing.sync_overhead(n)
    )
    asp_step = max(timing.ps_apply, timing.mean_compute_time(job.batch_size) / n)
    return bsp_steps / n * bsp_round * 1.25 + asp_steps * asp_step * 1.15


def poisson_stream(
    scenario: FleetScenario,
    scale: float,
    seed: int,
    n_jobs: int | None = None,
    sync_policy: str = "sync-switch",
) -> tuple[JobRequest, ...]:
    """Deterministic Poisson arrival stream for one scenario.

    The first job arrives at t=0; subsequent gaps are exponential with
    mean ``interarrival_factor x estimated Sync-Switch service time``.
    Workload setups cycle round-robin through ``scenario.setup_mix``.
    When the scenario has a ``deadline_factor``, every job carries a
    deadline of ``arrival + factor x`` its own estimated Sync-Switch
    service time (see :class:`FleetScenario`).
    """
    count = n_jobs if n_jobs is not None else scenario.n_jobs
    if count <= 0:
        raise ConfigurationError("n_jobs must be positive")
    if sync_policy not in SYNC_POLICIES:
        raise ConfigurationError(f"unknown sync policy {sync_policy!r}")
    mean_gap = scenario.interarrival_factor * estimate_service_time(
        scenario.setup_mix[0],
        resolve_percent(scenario.setup_mix[0], "sync-switch"),
        scale,
    )
    rng = child_rng(seed, f"fleet/{scenario.name}/arrivals")
    requests = []
    arrival = 0.0
    for job_id in range(count):
        setup_index = scenario.setup_mix[job_id % len(scenario.setup_mix)]
        deadline = None
        if scenario.deadline_factor is not None:
            deadline = arrival + scenario.deadline_factor * (
                estimate_service_time(
                    setup_index,
                    resolve_percent(setup_index, "sync-switch"),
                    scale,
                )
            )
        requests.append(
            JobRequest(
                job_id=job_id,
                arrival=arrival,
                setup_index=setup_index,
                n_workers=SETUPS[setup_index].n_workers,
                sync_policy=sync_policy,
                deadline=deadline,
            )
        )
        arrival += float(rng.exponential(mean_gap)) if mean_gap > 0 else 0.0
    return tuple(requests)


@dataclass(frozen=True)
class TenantTier:
    """One tenant class inside a trace-scale workload mix.

    Cluster traces separate tenants into service classes: production
    jobs carry SLOs, batch jobs are large and deadline-free, dev jobs
    are small and frequent.  ``fraction`` is the tier's share of the
    arrival stream; ``deadline_factor`` (like
    :class:`FleetScenario.deadline_factor`) attaches a deadline of
    ``arrival + factor x`` the job's own estimated Sync-Switch service
    time when set; ``setup_mix`` cycles the tier's jobs round-robin
    through Table-I setups.
    """

    name: str
    fraction: float
    deadline_factor: float | None = None
    setup_mix: tuple[int, ...] = (1,)

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("tier name must be non-empty")
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError("tier fraction must be in (0, 1]")
        if self.deadline_factor is not None and self.deadline_factor <= 0:
            raise ConfigurationError("deadline_factor must be positive")
        if not self.setup_mix:
            raise ConfigurationError("setup_mix must be non-empty")
        for index in self.setup_mix:
            if index not in SETUPS:
                raise ConfigurationError(f"unknown setup index {index}")


#: Canonical three-class tenant mix for trace-scale workloads: a small
#: SLO-carrying production tier, a heavy batch tier mixing ResNet32 and
#: ResNet50 jobs, and a deadline-free dev tier.
DEFAULT_TENANT_TIERS = (
    TenantTier("prod", 0.2, deadline_factor=8.0),
    TenantTier("batch", 0.5, setup_mix=(1, 2)),
    TenantTier("dev", 0.3),
)


@dataclass(frozen=True)
class TraceScenario:
    """A datacenter-scale trace-shaped workload description.

    Where :class:`FleetScenario` plays hand-sized streams, this is the
    cluster-trace shape the scaling literature assumes: a **diurnal**
    arrival-rate profile (sinusoidally modulated Poisson — day peaks,
    night troughs), **heavy-tailed job sizes** (bounded Pareto on the
    step budget: many small jobs, a long tail of big ones) and a
    **tenant-tier mix** with per-tier deadlines and setup classes.

    ``mean_gap_factor`` scales the mean inter-arrival gap relative to
    the estimated Sync-Switch service time of a *mean-size* job of the
    first tier's first setup; ``diurnal_amplitude`` in ``[0, 1)`` is
    the peak-to-mean rate swing and ``diurnal_cycles`` how many full
    day/night cycles the stream spans.  ``pool_size`` workers are
    served as ``shards`` independent shards (each a self-contained
    fleet simulation over ``pool_size / shards`` workers), so the pool
    and every tier count must divide evenly.
    """

    name: str
    description: str
    pool_size: int = 64
    n_jobs: int = 10_000
    mean_gap_factor: float = 0.15
    diurnal_amplitude: float = 0.6
    diurnal_cycles: float = 4.0
    pareto_alpha: float = 1.6
    size_min: float = 0.05
    size_max: float = 3.0
    tiers: tuple[TenantTier, ...] = DEFAULT_TENANT_TIERS
    shards: int = 4

    def __post_init__(self):
        if self.pool_size <= 0 or self.n_jobs <= 0:
            raise ConfigurationError("pool_size and n_jobs must be positive")
        if self.mean_gap_factor < 0:
            raise ConfigurationError("mean_gap_factor must be >= 0")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigurationError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_cycles <= 0:
            raise ConfigurationError("diurnal_cycles must be positive")
        if self.pareto_alpha <= 0:
            raise ConfigurationError("pareto_alpha must be positive")
        if not 0.0 < self.size_min <= self.size_max:
            raise ConfigurationError(
                "need 0 < size_min <= size_max for the Pareto bounds"
            )
        if not self.tiers:
            raise ConfigurationError("at least one tenant tier is required")
        total = sum(tier.fraction for tier in self.tiers)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"tier fractions must sum to 1, got {total}"
            )
        if self.shards <= 0:
            raise ConfigurationError("shards must be positive")
        if self.pool_size % self.shards != 0:
            raise ConfigurationError(
                f"pool_size {self.pool_size} must divide evenly into "
                f"{self.shards} shard(s)"
            )
        per_shard = self.pool_size // self.shards
        for tier in self.tiers:
            for index in tier.setup_mix:
                if SETUPS[index].n_workers > per_shard:
                    raise ConfigurationError(
                        f"setup {index} demands {SETUPS[index].n_workers} "
                        f"workers but each shard only has {per_shard}"
                    )

    def mean_size(self) -> float:
        """Analytic mean of the bounded-Pareto size distribution."""
        alpha, lo, hi = self.pareto_alpha, self.size_min, self.size_max
        if lo == hi:
            return lo
        if alpha == 1.0:
            return math.log(hi / lo) / (1.0 / lo - 1.0 / hi)
        ratio = (lo / hi) ** alpha
        return (
            (lo**alpha)
            / (1.0 - ratio)
            * alpha
            / (alpha - 1.0)
            * (lo ** (1.0 - alpha) - hi ** (1.0 - alpha))
        )


TRACE_SCENARIOS: dict[str, TraceScenario] = {
    "trace": TraceScenario(
        name="trace",
        description=(
            "datacenter-scale diurnal trace: heavy-tailed multi-tenant "
            "jobs on a heterogeneous, sharded pool"
        ),
    ),
}


def bounded_pareto(u: float, alpha: float, lo: float, hi: float) -> float:
    """Inverse-CDF sample of a bounded Pareto from uniform ``u``.

    The standard truncated-Pareto transform: heavy-tailed within
    ``[lo, hi]``, exact at both bounds by construction (``1 / (1 /
    lo)`` is not ``lo``), with the ``alpha == 1`` singularity handled
    by its own closed form.
    """
    if not 0.0 <= u <= 1.0:
        raise ConfigurationError("u must be in [0, 1]")
    if u == 0.0 or lo == hi:
        return lo
    if u == 1.0:
        return hi
    # ``(1-u) + u*ratio`` rather than ``1 - u*(1-ratio)``: identical in
    # real arithmetic, but the latter cancels catastrophically for u
    # near 1 when ratio approaches machine epsilon (hypothesis-found),
    # landing outside ``[lo, hi]``.
    if alpha == 1.0:
        return 1.0 / ((1.0 - u) / lo + u / hi)
    ratio = (lo / hi) ** alpha
    return lo / ((1.0 - u) + u * ratio) ** (1.0 / alpha)


def trace_stream(
    scenario: TraceScenario,
    scale: float,
    seed: int,
    n_jobs: int | None = None,
    sync_policy: str = "sync-switch",
) -> tuple[JobRequest, ...]:
    """Deterministic cluster-trace-shaped arrival stream.

    Arrivals follow a sinusoidally modulated Poisson process (the
    diurnal profile: each gap is exponential with the instantaneous
    mean ``mean_gap / (1 + amplitude * sin(...))``), sizes are bounded
    Pareto, and each job is assigned a tenant tier by the scenario's
    tier fractions.  Every stochastic choice draws from its own child
    RNG stream, so the stream is reproducible and insensitive to how
    it is later sharded.
    """
    count = n_jobs if n_jobs is not None else scenario.n_jobs
    if count <= 0:
        raise ConfigurationError("n_jobs must be positive")
    if sync_policy not in SYNC_POLICIES:
        raise ConfigurationError(f"unknown sync policy {sync_policy!r}")
    arrivals = child_rng(seed, f"fleet/{scenario.name}/arrivals")
    sizes = child_rng(seed, f"fleet/{scenario.name}/sizes")
    tier_picks = child_rng(seed, f"fleet/{scenario.name}/tiers")
    anchor = scenario.tiers[0].setup_mix[0]
    mean_gap = scenario.mean_gap_factor * estimate_service_time(
        anchor,
        resolve_percent(anchor, "sync-switch"),
        scale,
        scenario.mean_size(),
    )
    period = count * mean_gap / scenario.diurnal_cycles
    boundaries = []
    cumulative = 0.0
    for tier in scenario.tiers:
        cumulative += tier.fraction
        boundaries.append(cumulative)
    per_tier_counts = {tier.name: 0 for tier in scenario.tiers}
    requests = []
    arrival = 0.0
    for job_id in range(count):
        pick = float(tier_picks.random())
        tier = scenario.tiers[-1]
        for bound, candidate in zip(boundaries, scenario.tiers):
            if pick < bound:
                tier = candidate
                break
        rank = per_tier_counts[tier.name]
        per_tier_counts[tier.name] += 1
        setup_index = tier.setup_mix[rank % len(tier.setup_mix)]
        size = bounded_pareto(
            float(sizes.random()),
            scenario.pareto_alpha,
            scenario.size_min,
            scenario.size_max,
        )
        deadline = None
        if tier.deadline_factor is not None:
            deadline = arrival + tier.deadline_factor * estimate_service_time(
                setup_index,
                resolve_percent(setup_index, "sync-switch"),
                scale,
                size,
            )
        requests.append(
            JobRequest(
                job_id=job_id,
                arrival=arrival,
                setup_index=setup_index,
                n_workers=SETUPS[setup_index].n_workers,
                sync_policy=sync_policy,
                deadline=deadline,
                tier=tier.name,
                steps_scale=size,
            )
        )
        if mean_gap > 0:
            rate = 1.0 + scenario.diurnal_amplitude * math.sin(
                2.0 * math.pi * arrival / period
            )
            arrival += float(arrivals.exponential(mean_gap / rate))
    return tuple(requests)


def assign_shards(
    requests: tuple[JobRequest, ...], n_shards: int, seed: int
) -> tuple[tuple[JobRequest, ...], ...]:
    """Deterministic job -> shard partition of an arrival stream.

    Shard picks come from their own child RNG stream of the workload
    seed (one draw per job, in stream order), so the partition is a
    pure function of ``(stream, n_shards, seed)`` — the property the
    sharded-equality goldens pin.  Arrival order is preserved within
    each shard; shards may be empty for short streams.
    """
    if n_shards <= 0:
        raise ConfigurationError("n_shards must be positive")
    if n_shards == 1:
        return (tuple(requests),)
    rng = child_rng(seed, "fleet/trace/shards")
    shards: list[list[JobRequest]] = [[] for _ in range(n_shards)]
    for request in requests:
        shards[int(rng.integers(n_shards))].append(request)
    return tuple(tuple(shard) for shard in shards)


@dataclass(frozen=True)
class _TraceFile:
    """The object a trace file holds: ``{"jobs": [...]}``."""

    jobs: tuple[JobRequest, ...] = coded(nonempty=True)


def save_trace(path: str | Path, requests: tuple[JobRequest, ...]) -> None:
    """Write an arrival stream as a JSON trace file."""
    payload = encode(_TraceFile(jobs=tuple(requests)))
    Path(path).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )


def load_trace(path: str | Path) -> tuple[JobRequest, ...]:
    """Load a JSON trace file written by :func:`save_trace`.

    Jobs are sorted by arrival time (ties by job id) so hand-written
    traces need not be pre-sorted.
    """
    where = f"trace {path}"
    requests = decode(_TraceFile, read_json(path, where), where).jobs
    ids = [request.job_id for request in requests]
    if len(set(ids)) != len(ids):
        reject(where, "jobs", "distinct job ids", ids)
    return tuple(
        sorted(requests, key=lambda request: (request.arrival, request.job_id))
    )
