"""Fleet-level telemetry: per-job records and scenario summaries.

A fleet run produces one :class:`JobRecord` per job (arrival,
admission, completion, preemptions, training outcome) and one
:class:`FleetSummary` aggregating them into the serving-scale metrics
the multi-tenant literature reports: job completion time (JCT),
queueing delay, makespan, worker utilization and aggregate throughput.
This is the fleet-scale counterpart of the paper's per-job telemetry
(Section VI reports per-session time/accuracy; here whole streams are
summarized).

Two extensions beyond plain training jobs:

* **search trials** (``kind == "search-trial"``) are the Algorithm 1
  sessions the tuning layer runs *as fleet jobs* (Section VI-C's
  amortized search); they occupy workers and count toward JCT and
  utilization exactly like the paper counts search sessions as real
  training runs, and their aggregate cost is reported separately as
  ``search_time``;
* **SLO accounting** — jobs may carry deadlines; the summary reports
  attainment (fraction of deadline jobs finishing in time), plus how
  many jobs the SLO scheduler rejected or degraded to all-BSP.

Both objects are JSON-serializable (``to_dict``/``from_dict``) so fleet
cells can share the experiment harness's atomic on-disk cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import coded, decode, encode, reject
from repro.errors import ConfigurationError
from repro.obs.metrics import percentile

__all__ = [
    "JobRecord",
    "FleetSummary",
    "summarize_fleet",
    "merge_fleet_summaries",
    "percentile",
]


@dataclass(frozen=True)
class JobRecord:
    """Lifecycle of one job inside a fleet run.

    ``outcome`` is ``"completed"`` for jobs that trained to the end and
    ``"rejected"`` for jobs the SLO scheduler refused (their ``start``
    and ``finish`` both hold the rejection time and no training
    happened).  ``percent`` is the BSP percentage the job *actually*
    trained at — the tuned percentage when the policy store supplied
    one (``tuned``), or 100 when the SLO scheduler degraded the job to
    all-BSP (``degraded``).

    ``allocations`` is the per-segment allocation history: one
    ``{"time", "workers", "cause"}`` row per allocation-changing event
    (``admit``, then ``preempt``/``restore`` rows for every elastic
    resize), so each span between consecutive rows ran on a fixed
    worker count.  Empty for rejected jobs and for payloads cached
    before the elastic re-simulation landed.
    """

    job_id: int = coded(min=0)
    setup_index: int = coded(min=0)
    sync_policy: str
    percent: float = coded(min=0.0, max=100.0)
    demand: int = coded(min=1)
    arrival: float = coded(min=0.0)
    start: float = coded(min=0.0)
    finish: float = coded(min=0.0)
    preemptions: int = coded(0, min=0)
    restores: int = coded(0, min=0)
    accuracy: float | None = coded(None, min=0.0, max=1.0)
    diverged: bool = False
    completed_steps: int = coded(0, min=0)
    images: int = coded(0, min=0)
    kind: str = "train"
    deadline: float | None = coded(None, above=0.0)
    tuned: bool = False
    degraded: bool = False
    outcome: str = coded("completed", choices=("completed", "rejected"))
    allocations: tuple[dict, ...] = ()
    #: Staleness percentile summary of the job's training telemetry
    #: (``{"mean", "p50", "p95", "max"}``); None for rejected jobs and
    #: payloads cached before staleness surfaced in fleet records.
    staleness: dict | None = None
    #: Tenant tier of trace-workload jobs (``"prod"``/``"batch"``/...);
    #: None for classic scenario streams and legacy payloads.  Written
    #: only when set: classic-scenario payloads keep their historical
    #: byte shape, which the fleet golden hashes pin.
    tier: str | None = coded(None, omit_none=True)

    @property
    def jct(self) -> float:
        """Job completion time: arrival to finish (queueing included)."""
        return self.finish - self.arrival

    @property
    def queue_delay(self) -> float:
        """Seconds the job waited before workers were allocated."""
        return self.start - self.arrival

    @property
    def service_time(self) -> float:
        """Seconds from admission to completion."""
        return self.finish - self.start

    @property
    def met_deadline(self) -> bool | None:
        """SLO outcome: None without a deadline, else finished in time."""
        if self.deadline is None:
            return None
        return self.outcome == "completed" and self.finish <= self.deadline

    def allocation_segments(self) -> tuple[dict, ...]:
        """Fixed-allocation spans derived from the allocation history.

        Each row covers ``[start, end)`` on a constant worker count;
        the final span ends at the job's finish.  Empty when no
        history was recorded (rejected jobs, legacy payloads).
        """
        if not self.allocations:
            return ()
        spans = []
        for row, nxt in zip(self.allocations, self.allocations[1:]):
            spans.append(
                {
                    "start": row["time"],
                    "end": nxt["time"],
                    "workers": row["workers"],
                    "cause": row["cause"],
                }
            )
        last = self.allocations[-1]
        spans.append(
            {
                "start": last["time"],
                "end": self.finish,
                "workers": last["workers"],
                "cause": last["cause"],
            }
        )
        return tuple(spans)

    def to_dict(self) -> dict:
        """Plain-python dict for JSON caching."""
        return encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        """Inverse of :meth:`to_dict` (tolerates pre-SLO and
        pre-re-simulation payloads)."""
        return decode(cls, data, "job record")


@dataclass(frozen=True)
class FleetSummary:
    """Aggregate outcome of one fleet scenario run.

    JCT/throughput aggregates cover *completed* jobs (stream jobs and
    search trials alike); rejected jobs are excluded from them but
    counted in ``n_rejected`` and — like every unmet deadline — against
    ``slo_attainment``.  ``tuning`` carries the policy store's
    per-class amortization rows (see
    :meth:`repro.fleet.policy_store.PolicyStore.report`) when the run
    tuned anything.
    """

    scenario: str
    scheduler: str
    sync_policy: str
    seed: int
    scale: float = coded(above=0.0)
    pool_size: int = coded(min=1)
    n_jobs: int = coded(min=0)
    jobs: tuple[JobRecord, ...]
    makespan: float = coded(min=0.0)
    mean_jct: float = coded(min=0.0)
    p95_jct: float = coded(min=0.0)
    max_jct: float = coded(min=0.0)
    mean_queue_delay: float = coded(min=0.0)
    max_queue_delay: float = coded(min=0.0)
    utilization: float = coded(min=0.0)
    images_per_second: float = coded(min=0.0)
    preemptions: int = coded(min=0)
    restores: int = coded(min=0)
    diverged_jobs: int = coded(min=0)
    mean_accuracy: float | None = coded(min=0.0, max=1.0)
    n_search_jobs: int = coded(0, min=0)
    search_time: float = coded(0.0, min=0.0)
    n_rejected: int = coded(0, min=0)
    n_degraded: int = coded(0, min=0)
    n_deadline_jobs: int = coded(0, min=0)
    slo_attainment: float | None = coded(None, min=0.0, max=1.0)
    tuning: tuple[dict, ...] | None = None
    #: Fleet staleness aggregates over completed jobs carrying a
    #: staleness summary: mean of the per-job p50/p95 percentiles and
    #: the largest per-job max.  All zero when no job reported one.
    staleness_p50: float = coded(0.0, min=0.0)
    staleness_p95: float = coded(0.0, min=0.0)
    staleness_max: float = coded(0.0, min=0.0)
    #: Per-tenant-tier aggregate rows (trace workloads): one dict per
    #: tier name seen in the records, with JCT/SLO/makespan aggregates
    #: over that tier's jobs.  None (and the key left out) when no
    #: record carries a tier, so classic-scenario payloads keep their
    #: historical byte shape.
    tiers: tuple[dict, ...] | None = coded(None, omit_none=True)

    def __post_init__(self):
        # A tuning row without its schedule predates the retired
        # percent-only form: a cached blob of it is a miss, recomputed.
        for index, row in enumerate(self.tuning or ()):
            if row.get("fractions") is None:
                reject("", f"tuning[{index}].fractions", "a list of shares", None)

    def to_dict(self) -> dict:
        """Plain-python dict for JSON caching and the results artifact."""
        return encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FleetSummary":
        """Inverse of :meth:`to_dict` (tolerates pre-SLO payloads)."""
        return decode(cls, data, "fleet summary")


def _group(records) -> dict:
    """JCT/SLO/makespan aggregates of one job group, in tier-row order.

    The fold behind both the stream headline and every tenant-tier
    row.  JCT and makespan cover completed jobs; an empty group has
    ``p95_jct`` and ``slo_attainment`` None (a tier whose every job
    was rejected, a shard without deadline jobs), never an error.
    """
    completed = [record for record in records if record.outcome == "completed"]
    jcts = [record.jct for record in completed]
    # One record per job id is a simulator invariant (a job is recorded
    # by exactly one of _reject/_complete), so every deadline job counts
    # exactly once in attainment whatever its triage path — degraded
    # then completed, rejected, or plain; pinned by
    # tests/fleet/test_slo.py::test_degraded_jobs_count_once_in_attainment.
    deadline_jobs = [
        record
        for record in records
        if record.deadline is not None and record.kind == "train"
    ]
    met = sum(1 for record in deadline_jobs if record.met_deadline)
    return {
        "n_jobs": len(records),
        "n_completed": len(completed),
        "n_rejected": sum(
            1 for record in records if record.outcome == "rejected"
        ),
        "mean_jct": sum(jcts) / len(jcts) if jcts else 0.0,
        "p95_jct": percentile(jcts, 0.95),
        "max_jct": max(jcts, default=0.0),
        "makespan": max((record.finish for record in completed), default=0.0),
        "n_deadline_jobs": len(deadline_jobs),
        "slo_attainment": met / len(deadline_jobs) if deadline_jobs else None,
    }


def summarize_fleet(
    scenario: str,
    scheduler: str,
    sync_policy: str,
    seed: int,
    scale: float,
    pool_size: int,
    records: list[JobRecord],
    busy_worker_seconds: float,
    tuning: tuple[dict, ...] | None = None,
) -> FleetSummary:
    """Fold per-job records into one :class:`FleetSummary`.

    The headline and each tenant-tier row are the same :func:`_group`
    fold, over the whole stream and over one tier's jobs.
    """
    ordered = tuple(sorted(records, key=lambda record: record.job_id))
    headline = _group(ordered)
    del headline["n_completed"]  # a tier-row field only
    if headline["p95_jct"] is None:
        headline["p95_jct"] = 0.0
    makespan = headline["makespan"]
    completed = [
        record for record in ordered if record.outcome == "completed"
    ]
    delays = [record.queue_delay for record in completed]
    capacity = pool_size * makespan
    images = sum(record.images for record in completed)
    accuracies = [
        record.accuracy
        for record in completed
        if record.accuracy is not None and not record.diverged
    ]
    search_trials = [
        record for record in completed if record.kind == "search-trial"
    ]
    staleness_rows = [
        record.staleness for record in completed if record.staleness
    ]
    tier_names = sorted(
        {record.tier for record in ordered if record.tier is not None}
    )
    return FleetSummary(
        scenario=scenario,
        scheduler=scheduler,
        sync_policy=sync_policy,
        seed=seed,
        scale=scale,
        pool_size=pool_size,
        jobs=ordered,
        mean_queue_delay=sum(delays) / len(delays) if delays else 0.0,
        max_queue_delay=max(delays) if delays else 0.0,
        utilization=busy_worker_seconds / capacity if capacity > 0 else 0.0,
        images_per_second=images / makespan if makespan > 0 else 0.0,
        preemptions=sum(record.preemptions for record in ordered),
        restores=sum(record.restores for record in ordered),
        diverged_jobs=sum(1 for record in ordered if record.diverged),
        mean_accuracy=(
            sum(accuracies) / len(accuracies) if accuracies else None
        ),
        n_search_jobs=len(search_trials),
        search_time=sum(record.service_time for record in search_trials),
        n_degraded=sum(1 for record in ordered if record.degraded),
        tuning=tuning,
        staleness_p50=(
            sum(row.get("p50", 0.0) for row in staleness_rows)
            / len(staleness_rows)
            if staleness_rows
            else 0.0
        ),
        staleness_p95=(
            sum(row.get("p95", 0.0) for row in staleness_rows)
            / len(staleness_rows)
            if staleness_rows
            else 0.0
        ),
        staleness_max=max(
            (row.get("max", 0.0) for row in staleness_rows), default=0.0
        ),
        tiers=tuple(
            {
                "tier": name,
                **_group([record for record in ordered if record.tier == name]),
            }
            for name in tier_names
        )
        or None,
        **headline,
    )


def merge_fleet_summaries(
    summaries, scenario: str | None = None, pool_size: int | None = None
) -> FleetSummary:
    """Recombine independent pool-shard summaries into one fleet view.

    The sharded trace simulation runs each pool shard as its own fleet
    (deterministic job->shard assignment, disjoint worker pools, global
    job ids); this fold concatenates their records and re-summarizes
    over the combined pool.  The merged pool size is the sum of shard
    pools and the busy-worker-seconds are reconstructed per shard from
    ``utilization x pool x makespan`` (the exact inverse of how each
    shard computed utilization), so the merge is a pure function of the
    shard summaries — identical whether the shards ran inline or in
    worker processes.  ``scenario`` defaults to the first shard's name
    with its ``/shard-N`` suffix stripped; ``pool_size`` overrides the
    summed shard pools (pass the full fleet pool when empty shards were
    skipped — their idle capacity still existed).
    """
    parts = list(summaries)
    if not parts:
        raise ConfigurationError("no shard summaries to merge")
    first = parts[0]
    for part in parts[1:]:
        ours = (part.scheduler, part.sync_policy, part.seed, part.scale)
        theirs = (first.scheduler, first.sync_policy, first.seed, first.scale)
        if ours != theirs:
            raise ConfigurationError(
                "shards disagree on scheduler/sync_policy/seed/scale: "
                f"{ours} != {theirs}"
            )
        if part.tuning is not None or first.tuning is not None:
            raise ConfigurationError(
                "tuned shards cannot be merged (per-shard policy stores "
                "would double-count amortization)"
            )
    records = [record for part in parts for record in part.jobs]
    ids = [record.job_id for record in records]
    if len(set(ids)) != len(ids):
        raise ConfigurationError(
            "shards share job ids; the merge would double-count them"
        )
    busy = sum(
        part.utilization * part.pool_size * part.makespan for part in parts
    )
    if scenario is None:
        scenario = first.scenario.split("/shard-")[0]
    return summarize_fleet(
        scenario=scenario,
        scheduler=first.scheduler,
        sync_policy=first.sync_policy,
        seed=first.seed,
        scale=first.scale,
        pool_size=(
            pool_size
            if pool_size is not None
            else sum(part.pool_size for part in parts)
        ),
        records=records,
        busy_worker_seconds=busy,
    )
