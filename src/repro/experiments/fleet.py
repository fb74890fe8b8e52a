"""Fleet scenario driver: comparison grids, traces and the tuning artifact.

One *fleet cell* is a full multi-job fleet simulation
(:func:`repro.fleet.simulate_fleet`) for one ``(scenario, scheduler,
sync policy, seed)`` combination.  The driver expands a grid of cells,
fans it through the experiments layer's
:class:`~repro.experiments.executor.ParallelExecutor` (same dedup,
process-pool and atomic-disk-cache machinery as the training-cell
batches) and folds the summaries into a
:class:`~repro.experiments.reporting.Report` plus the
``results/fleet_summary.json`` artifact comparing scheduler policies x
synchronization policies on fleet JCT.

The **fleet-search** driver (:func:`tuning_grid`) is the fleet-scale
version of the paper's search-cost analysis (Section VI-C, Table II):
per scenario it compares an all-BSP stream against a Sync-Switch
stream whose switch timing is searched *inside* the fleet
(``tune=True`` — Algorithm 1 trials run as fleet jobs and their cost
is amortized across the recurring class), repeated over several seeds
so ``results/fleet_tuning_summary.json`` reports mean JCTs with 95%
confidence intervals and per-class break-even recurrence counts.

Every mode — grid, sharded trace, traced cell, tuning — is one
:class:`FleetMode` in :data:`MODES` and publishes through one chain,
:func:`run_mode`: run the cells, fold the payload, write the artifact,
render the report.  The ``report`` registry entries and the ``fleet``
CLI are thin callers of it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable

from repro.experiments.executor import (
    ParallelExecutor,
    digest_key,
    disk_load,
    disk_store,
    resolve_cache_dir,
)
from repro.codec import coded, decode, encode
from repro.distsim.cluster import WorkerTier, default_worker_tiers
from repro.errors import ConfigurationError
from repro.experiments.reporting import Report, declares
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setups import SETUPS
from repro.fleet import (
    FLEET_SCENARIOS,
    SCHEDULERS,
    SYNC_POLICIES,
    TRACE_SCENARIOS,
    FleetConfig,
    FleetSimulator,
    FleetSummary,
    JobRequest,
    assign_shards,
    merge_fleet_summaries,
    simulate_fleet,
    trace_stream,
)
from repro.fleet.fleet_sim import realize_stream
from repro.fleet.pool import check_tiers
from repro.obs import trace_categories

__all__ = [
    "DEFAULT_FLEET_SCALE",
    "DEFAULT_TUNING_SCENARIOS",
    "DEFAULT_TUNING_SEEDS",
    "DEFAULT_TRACE_SCALE_JOBS",
    "DEFAULT_TRACE_SCALE_SHARDS",
    "MODES",
    "FleetMode",
    "FleetRunRequest",
    "FleetShardRequest",
    "TracedFleetRun",
    "confidence_interval95",
    "fleet_artifact",
    "fleet_grid",
    "fleet_report",
    "fleet_trace_artifact",
    "fleet_trace_report",
    "fleet_trace_scale_artifact",
    "fleet_trace_scale_report",
    "fleet_tuning_artifact",
    "fleet_tuning_report",
    "run_mode",
    "run_trace_scale",
    "run_traced_fleet",
    "shard_worker_tiers",
    "summary_payload",
    "trace_metrics_payload",
    "trace_scale_payload",
    "tuning_grid",
    "tuning_summary_payload",
]

#: Where every mode's artifact goes by default (repo root / results).
RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"

#: Scenarios the ``fleet-search`` artifact compares: a long recurring
#: stream (amortization realized inside the run) and the contended
#: rush stream (search cost paid under queueing).
DEFAULT_TUNING_SCENARIOS = ("recurring", "rush")

#: Seeds per tuning cell (95% CIs need at least two).
DEFAULT_TUNING_SEEDS = 3

#: Step-budget scale used by every fleet entry point (the ``fleet``
#: CLI and the ``report fleet`` artifact).  Fleet cells multiply one
#: training run by (schedulers x policies x stream length), so they
#: run at a small fixed scale rather than the report default, keeping
#: ``report all`` affordable and the two surfaces' numbers identical.
DEFAULT_FLEET_SCALE = 0.008

#: Stream length and shard count of the ``fleet-trace-scale`` artifact:
#: long enough for the diurnal cycles and the heavy tail to show, small
#: enough to refresh in about a minute per idle core.
DEFAULT_TRACE_SCALE_JOBS = 600
DEFAULT_TRACE_SCALE_SHARDS = 4


def _key_payload(kind: str, request, scale: float) -> dict:
    """A fleet cell's cache-key payload: its codec encoding plus
    ``kind`` and ``scale``.

    Every request field is keyed because the codec writes every field;
    ``TestCacheKeySchema`` checks that each one moves the key.
    """
    # "resim" is frozen: the ledger's pinned digests hash cache file names.
    return {"kind": kind, "scale": scale, "resim": "exact", **encode(request)}


def _cell_datasets(request, scale: float) -> frozenset[str]:
    """A fleet cell's ``datasets``: its setups' datasets, read off the
    stream its configuration realizes (search trials reuse their
    class's setup)."""
    stream, _, _ = realize_stream(request.config(scale))
    return frozenset(SETUPS[job.setup_index].dataset for job in stream)


@dataclass(frozen=True)
class FleetRunRequest:
    """One fleet cell: a scenario served by one scheduler and policy.

    ``tune`` turns on the in-fleet amortized timing search for the
    cell (see :class:`~repro.fleet.fleet_sim.FleetConfig`);
    ``protocols``/``fractions`` select an N-segment schedule — searched
    over when tuning, trained directly when the fractions are fixed.
    A cell is *traced* exactly when ``trace_detail`` is set: it then
    stores a :class:`TracedFleetRun` (summary, events, and the
    ``metrics_interval`` timeline) instead of a bare summary, under its
    own key namespace (the simulated outcome is tracing-invariant).
    """

    scenario: str
    scheduler: str
    sync_policy: str
    seed: int = 0
    n_jobs: int | None = None
    trace: tuple[JobRequest, ...] | None = None
    tune: bool = False
    tune_runs: int = 1
    protocols: tuple[str, ...] | None = None
    fractions: tuple[float, ...] | None = None
    trace_detail: str | None = None
    metrics_interval: float | None = None
    #: Heterogeneous worker tiers (see
    #: :class:`~repro.fleet.fleet_sim.FleetConfig`); keyed only when
    #: set, so pre-existing cache entries keep their identities.
    tiers: tuple[WorkerTier, ...] | None = coded(None, omit_none=True)

    def key(self, scale: float) -> str:
        """Cache key of this cell at ``scale`` (the dedup identity)."""
        digest = digest_key(_key_payload("fleet", self, scale))
        if self.trace_detail is None:
            return digest
        # A traced cell stores a TracedFleetRun, not a bare summary, so
        # it gets its own namespace (frozen: TestCacheKeySchema pins it).
        return digest_key({"kind": "fleet-trace", "cell": digest})

    def config(self, scale: float) -> FleetConfig:
        """The simulator configuration for this cell (every field of
        the request is a :class:`FleetConfig` field of the same name)."""
        return FleetConfig(
            scale=scale,
            **{field.name: getattr(self, field.name) for field in fields(self)}
        )

    datasets = _cell_datasets


def _execute_fleet_cell(payload: tuple) -> tuple[str, dict]:
    """Pool worker: simulate one fleet or shard cell (re-checking the
    disk cache); a traced cell also captures its events and metrics."""
    scale, cache_dir, request, key = payload
    traced = getattr(request, "trace_detail", None) is not None
    kind = TracedFleetRun if traced else FleetSummary
    cache_path = Path(cache_dir) if cache_dir is not None else None
    cached = disk_load(cache_path, key, kind.from_dict)
    if cached is not None:
        return key, cached.to_dict()
    if traced:
        simulator = FleetSimulator(request.config(scale))
        result = TracedFleetRun(
            simulator.run(),
            list(simulator.tracer.events),
            simulator.metrics_payload,
        )
    else:
        result = simulate_fleet(request.config(scale))
    disk_store(cache_path, key, result)
    return key, result.to_dict()


def _execute_cells(
    requests,
    scale: float,
    jobs: int | None,
    cache_dir: str | Path | None,
    decode=FleetSummary.from_dict,
) -> dict:
    """Run fleet cells as one deduplicated executor batch, by cache key."""
    return ParallelExecutor(
        scale=scale,
        cache_dir=resolve_cache_dir(cache_dir),
        jobs=jobs,
        cell_fn=_execute_fleet_cell,
        decode=decode,
    ).execute(requests)


def fleet_grid(
    scenario: str = "rush",
    schedulers: tuple[str, ...] | None = None,
    policies: tuple[str, ...] | None = None,
    scale: float = DEFAULT_FLEET_SCALE,
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
    **cell_fields,
) -> dict[tuple[str, str], FleetSummary]:
    """Simulate a scheduler x sync-policy grid for one scenario.

    ``cell_fields`` are further :class:`FleetRunRequest` fields shared by
    every cell (``seed``, ``n_jobs``, ``trace``; ``protocols``/
    ``fractions`` pin a fixed N-segment schedule for the Sync-Switch
    cells; ``tiers`` makes every cell's pool heterogeneous).  The grid
    executes as one deduplicated
    :class:`~repro.experiments.executor.ParallelExecutor` batch
    (``jobs`` worker processes, atomic shared disk cache), exactly like
    the figure/table training grids.
    """
    schedulers = schedulers or tuple(sorted(SCHEDULERS))
    policies = policies or SYNC_POLICIES
    requests = [
        FleetRunRequest(scenario, scheduler, policy, **cell_fields)
        for scheduler in schedulers
        for policy in policies
    ]
    results = _execute_cells(requests, scale, jobs, cache_dir)
    return {
        (request.scheduler, request.sync_policy): results[request.key(scale)]
        for request in requests
    }


# ----------------------------------------------------------------------
# fleet-trace-scale: sharded datacenter-scale trace simulation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FleetShardRequest:
    """One pool shard of a sharded trace simulation.

    A shard is a complete, independent fleet cell: its slice of the
    arrival stream (global job ids preserved), its ``pool_size``-worker
    slice of the physical pool and its share of every hardware tier.
    Determinism comes for free — the shard's identity is a pure
    function of its stream slice and configuration, so the executor
    can run shards inline (``jobs=1``) or across worker processes
    (``jobs=N``) with bit-identical cell payloads.
    """

    scenario: str
    shard_index: int
    n_shards: int
    trace: tuple[JobRequest, ...]
    pool_size: int
    scheduler: str
    sync_policy: str
    seed: int = 0
    tiers: tuple[WorkerTier, ...] | None = None

    def key(self, scale: float) -> str:
        """Cache key of this shard cell (the dedup identity)."""
        return digest_key(_key_payload("fleet-shard", self, scale))

    def config(self, scale: float) -> FleetConfig:
        """The simulator configuration for this shard.

        The ``/shard-N`` scenario suffix gives every shard its own
        contention RNG stream (derived from the scenario name), so a
        shard's events never depend on how many sibling shards exist
        in the same process.
        """
        return FleetConfig(
            scenario=f"{self.scenario}/shard-{self.shard_index}",
            scheduler=self.scheduler,
            sync_policy=self.sync_policy,
            seed=self.seed,
            scale=scale,
            trace=self.trace,
            pool_size=self.pool_size,
            tiers=self.tiers,
        )

    datasets = _cell_datasets


def shard_worker_tiers(
    tiers: tuple[WorkerTier, ...] | None, n_shards: int
) -> tuple[WorkerTier, ...] | None:
    """Split fleet-wide hardware tiers evenly across pool shards."""
    if not tiers:
        return None
    for tier in tiers:
        if tier.count % n_shards:
            raise ConfigurationError(
                f"tier {tier.name!r} has {tier.count} workers; not "
                f"divisible across {n_shards} shards"
            )
    return tuple(
        replace(tier, count=tier.count // n_shards) for tier in tiers
    )


def run_trace_scale(
    scenario: str = "trace",
    scheduler: str = "slo",
    sync_policy: str = "sync-switch",
    seed: int = 0,
    scale: float = DEFAULT_FLEET_SCALE,
    n_jobs: int | None = None,
    shards: int | None = None,
    pool_size: int | None = None,
    tiers: tuple[WorkerTier, ...] | None = None,
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
) -> tuple[FleetSummary, list[dict]]:
    """Serve a datacenter-scale trace on a sharded heterogeneous pool.

    Generates the scenario's trace stream once, deterministically
    partitions it into ``shards`` independent pool shards
    (:func:`~repro.fleet.workload.assign_shards`), simulates each shard
    as its own fleet cell through the
    :class:`~repro.experiments.executor.ParallelExecutor` (``jobs``
    worker processes, shared disk cache) and recombines the shard
    summaries with
    :func:`~repro.fleet.metrics.merge_fleet_summaries`.  The merged
    summary is bit-identical at any ``jobs`` count — the acceptance
    property the trace-scale goldens pin.

    Returns ``(merged_summary, shard_rows)`` where ``shard_rows`` has
    one compact per-shard telemetry dict per shard (empty shards
    included, with zeroed aggregates).
    """
    if scenario not in TRACE_SCENARIOS:
        raise ConfigurationError(
            f"unknown trace scenario {scenario!r}; known: "
            f"{sorted(TRACE_SCENARIOS)}"
        )
    base = TRACE_SCENARIOS[scenario]
    n_shards = shards if shards is not None else base.shards
    if n_shards < 1:
        raise ConfigurationError("shards must be >= 1")
    pool = pool_size if pool_size is not None else base.pool_size
    if pool % n_shards:
        raise ConfigurationError(
            f"pool size {pool} not divisible into {n_shards} shards"
        )
    per_pool = pool // n_shards
    if tiers is None:
        tiers = default_worker_tiers(pool)
    # Against the whole pool: the user's counts, not a shard's share.
    check_tiers(tiers, pool)
    shard_tiers = shard_worker_tiers(tiers, n_shards)
    stream = trace_stream(
        base, scale, seed, n_jobs=n_jobs, sync_policy=sync_policy
    )
    demand = max(request.n_workers for request in stream)
    if demand > per_pool:
        raise ConfigurationError(
            f"largest job demands {demand} workers but each of "
            f"{n_shards} shards only has {per_pool}"
        )
    shard_streams = assign_shards(stream, n_shards, seed)
    requests = {
        index: FleetShardRequest(
            scenario=scenario,
            shard_index=index,
            n_shards=n_shards,
            trace=shard_stream,
            pool_size=per_pool,
            scheduler=scheduler,
            sync_policy=sync_policy,
            seed=seed,
            tiers=shard_tiers,
        )
        for index, shard_stream in enumerate(shard_streams)
        if shard_stream
    }
    results = _execute_cells(list(requests.values()), scale, jobs, cache_dir)
    summaries = {
        index: results[request.key(scale)]
        for index, request in requests.items()
    }
    merged = merge_fleet_summaries(
        summaries.values(), scenario=scenario, pool_size=pool
    )
    shard_rows = []
    for index in range(n_shards):
        summary = summaries.get(index)
        shard_rows.append(
            {
                "shard": index,
                "n_jobs": len(shard_streams[index]),
                "pool_size": per_pool,
                "makespan": summary.makespan if summary else 0.0,
                "utilization": summary.utilization if summary else 0.0,
                "mean_jct": summary.mean_jct if summary else 0.0,
                "n_rejected": summary.n_rejected if summary else 0,
            }
        )
    return merged, shard_rows


def trace_scale_payload(
    result: tuple[FleetSummary, list[dict]],
    scenario: str,
    scheduler: str,
    sync_policy: str,
    scale: float,
    seed: int,
    **_cells,
) -> dict:
    """The ``results/fleet_trace_scale.json`` payload of a
    :func:`run_trace_scale` result.

    The merged summary without the per-job record list (thousands of
    rows belong in the cache, not the committed artifact) plus the
    per-tenant-tier aggregates and the per-shard telemetry.
    """
    summary, shard_rows = result
    headline = summary.to_dict()
    headline.pop("jobs", None)
    tier_rows = headline.pop("tiers", None)
    return {
        "scenario": scenario,
        "scheduler": scheduler,
        "sync_policy": sync_policy,
        "scale": scale,
        "seed": seed,
        "n_shards": len(shard_rows),
        "summary": headline,
        "tenant_tiers": tier_rows,
        "shards": shard_rows,
    }


def fleet_trace_scale_report(payload: dict) -> Report:
    """Render a :func:`trace_scale_payload` as the trace-scale report."""
    summary = payload["summary"]
    rows = [
        {
            "group": f"tier {row['tier']}",
            "jobs": row["n_jobs"],
            "completed": row["n_completed"],
            "rejected": row["n_rejected"],
            "mean_jct_s": row["mean_jct"],
            "p95_jct_s": row["p95_jct"],
            "makespan_s": row["makespan"],
            "slo_attained": row["slo_attainment"],
        }
        for row in payload["tenant_tiers"] or ()
    ]
    for row in payload["shards"]:
        rows.append(
            {
                "group": f"shard {row['shard']}",
                "jobs": row["n_jobs"],
                "completed": None,
                "rejected": row["n_rejected"],
                "mean_jct_s": row["mean_jct"],
                "p95_jct_s": None,
                "makespan_s": row["makespan"],
                "slo_attained": None,
            }
        )
    return Report(
        ident=f"Fleet trace scale ({payload['scenario']})",
        title=(
            "Datacenter-scale trace on a heterogeneous, sharded pool: "
            "per-tenant-tier and per-shard aggregates"
        ),
        columns=list(rows[0]),
        rows=rows,
        notes=[
            f"{summary['n_jobs']} jobs over {payload['n_shards']} pool "
            f"shard(s) of {payload['shards'][0]['pool_size']} workers; "
            f"fleet utilization {summary['utilization']:.3f}",
            "diurnal sinusoidal arrivals, bounded-Pareto job sizes, "
            "prod/batch/dev tenant mix with prod deadlines (see "
            "docs/architecture.md, Trace-scale sharding)",
            "shards simulate independently and merge deterministically: "
            "the summary is bit-identical at any --procs count",
        ],
    )


# ----------------------------------------------------------------------
# fleet-trace: traced cells (virtual-time spans + metrics timeline)
# ----------------------------------------------------------------------


@dataclass
class TracedFleetRun:
    """One traced fleet cell: summary, trace events and metrics.

    ``events`` is the Chrome-trace-event list produced by the fleet's
    :class:`~repro.obs.tracer.Tracer` (write it with
    :func:`repro.obs.write_chrome_trace`); ``metrics`` is the
    :meth:`~repro.obs.metrics.MetricsRegistry.payload` timeline, or
    ``None`` when the cell ran without a metrics registry.
    """

    summary: FleetSummary
    events: list
    metrics: dict | None = None

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "TracedFleetRun":
        return decode(cls, payload, "traced fleet run")


def run_traced_fleet(
    scenario: str = "rush",
    scheduler: str = "fifo",
    sync_policy: str = "sync-switch",
    scale: float = DEFAULT_FLEET_SCALE,
    trace_detail: str = "job",
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
    **cell_fields,
) -> TracedFleetRun:
    """Simulate one fleet cell with the observability layer on.

    ``cell_fields`` are further :class:`FleetRunRequest` fields (``seed``,
    ``n_jobs``, ``trace``, ``metrics_interval``, ``tune``, ...).  The
    cell runs through the same :class:`ParallelExecutor` + disk-cache
    path as :func:`fleet_grid`, so a traced run is cached, resumable,
    and — because tracing never touches the simulation's clocks or RNG
    — produces the bit-identical :class:`FleetSummary` the untraced
    cell would.  The event list is deterministic too: the
    worker-process count (``jobs``) cannot affect it.
    """
    request = FleetRunRequest(
        scenario,
        scheduler,
        sync_policy,
        trace_detail=trace_detail,
        **cell_fields,
    )
    results = _execute_cells(
        [request], scale, jobs, cache_dir, decode=TracedFleetRun.from_dict
    )
    return results[request.key(scale)]


def trace_metrics_payload(
    run: TracedFleetRun,
    scenario: str,
    scheduler: str,
    sync_policy: str,
    scale: float,
    seed: int,
    **_cells,
) -> dict:
    """The ``results/fleet_trace_metrics.json`` payload of a traced cell.

    The artifact is the metrics *timeline* — interval snapshots of the
    fleet gauges/counters plus the final totals — alongside a compact
    census of the trace (event and per-category counts), not the raw
    event list itself (that is what ``fleet --trace PATH`` emits).
    """
    return {
        "scenario": scenario,
        "scheduler": scheduler,
        "sync_policy": sync_policy,
        "scale": scale,
        "seed": seed,
        "n_events": len(run.events),
        "categories": trace_categories(run.events),
        "metrics": run.metrics,
        "summary": {
            "mean_jct": run.summary.mean_jct,
            "makespan": run.summary.makespan,
            "utilization": run.summary.utilization,
            "staleness_p50": run.summary.staleness_p50,
            "staleness_p95": run.summary.staleness_p95,
            "staleness_max": run.summary.staleness_max,
        },
    }


def fleet_trace_report(run: TracedFleetRun, scenario: str) -> Report:
    """Fold a traced cell's metrics timeline into a :class:`Report`."""
    rows = []
    snapshots = (run.metrics or {}).get("snapshots", [])
    for snapshot in snapshots:
        gauges = snapshot.get("gauges", {})
        counters = snapshot.get("counters", {})
        rows.append(
            {
                "t_s": snapshot.get("t"),
                "queue": gauges.get("queue_depth"),
                "running": gauges.get("running_jobs"),
                "util": gauges.get("pool_utilization"),
                "admitted": counters.get("jobs_admitted"),
                "completed": counters.get("jobs_completed"),
                "switches": counters.get("protocol_switches"),
                "overhead_s": counters.get("overhead_paid_s"),
            }
        )
    categories = trace_categories(run.events)
    return Report(
        ident=f"Fleet trace ({scenario})",
        title="Fleet metrics timeline: interval snapshots of the "
        "observability registry",
        columns=[
            "t_s",
            "queue",
            "running",
            "util",
            "admitted",
            "completed",
            "switches",
            "overhead_s",
        ],
        rows=rows,
        notes=[
            f"{len(run.events)} trace events across "
            f"{len(categories)} categories: "
            + ", ".join(sorted(categories)),
            "snapshots are taken on the virtual-time metrics interval; "
            "counters are cumulative, gauges instantaneous",
            "export the span view with `fleet --trace PATH` and load "
            "the file in Perfetto (see docs/observability.md)",
        ],
    )


def fleet_report(
    grid: dict[tuple[str, str], FleetSummary], scenario: str
) -> Report:
    """Fold a fleet grid into a renderable :class:`Report`."""
    description = (
        FLEET_SCENARIOS[scenario].description
        if scenario in FLEET_SCENARIOS
        else "trace-driven stream"
    )
    rows = []
    for (scheduler, policy), summary in sorted(grid.items()):
        rows.append(
            {
                "scheduler": scheduler,
                "sync_policy": policy,
                "mean_jct_s": summary.mean_jct,
                "p95_jct_s": summary.p95_jct,
                "queue_delay_s": summary.mean_queue_delay,
                "makespan_s": summary.makespan,
                "utilization": summary.utilization,
                "imgs_per_s": summary.images_per_second,
                "stale_p50": summary.staleness_p50,
                "stale_p95": summary.staleness_p95,
                "preempt": summary.preemptions,
                "diverged": summary.diverged_jobs,
                "search_jobs": summary.n_search_jobs or None,
                "rejected": summary.n_rejected or None,
                "degraded": summary.n_degraded or None,
                "slo_attained": summary.slo_attainment,
            }
        )
    return Report(
        ident=f"Fleet ({scenario})",
        title=f"Multi-tenant fleet JCT: {description}",
        columns=list(rows[0]),
        rows=rows,
        notes=[
            "JCT = arrival to completion, simulated seconds; every job "
            "trains through the ElasticTrainingRun on its allocation",
            "sync-switch amortizes the paper's recurring-job argument "
            "across a shared cluster: faster service drains the queue",
            "search_jobs/rejected/degraded/slo_attained only apply to "
            "tuned (--tune) or deadline (slo scheduler) runs",
            "stale_p50/p95 average each completed job's gradient-"
            "staleness percentiles (pure-BSP policies stay at 0)",
        ],
    )


def summary_payload(
    grid: dict[tuple[str, str], FleetSummary],
    scenario: str,
    scale: float,
    seed: int,
    **_cells,
) -> dict:
    """The ``results/fleet_summary.json`` payload of a fleet grid."""
    cells = [
        {
            "scheduler": scheduler,
            "sync_policy": policy,
            **{
                metric: getattr(summary, metric)
                for metric in (
                    "mean_jct",
                    "p95_jct",
                    "max_jct",
                    "mean_queue_delay",
                    "makespan",
                    "utilization",
                    "images_per_second",
                    "preemptions",
                    "restores",
                    "diverged_jobs",
                    "mean_accuracy",
                    "staleness_p50",
                    "staleness_p95",
                    "staleness_max",
                    "n_jobs",
                    "pool_size",
                )
            },
        }
        for (scheduler, policy), summary in sorted(grid.items())
    ]
    return {"scenario": scenario, "scale": scale, "seed": seed, "cells": cells}


# ----------------------------------------------------------------------
# fleet-search: the amortized tuning comparison (Section VI-C at scale)
# ----------------------------------------------------------------------

#: Two-sided 95% t critical values by degrees of freedom (1..30); the
#: normal 1.96 is used beyond.  Enough for seed counts the driver uses.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
    19: 2.093, 20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064,
    25: 2.060, 26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


def confidence_interval95(values: list[float]) -> tuple[float, float]:
    """Sample mean and 95% CI half-width (Student t, small samples).

    A single observation has no spread estimate: half-width 0.0.
    """
    if not values:
        raise ValueError("confidence interval of an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    variance = sum((value - mean) ** 2 for value in values) / (n - 1)
    t = _T95.get(n - 1, 1.96)
    return mean, t * math.sqrt(variance / n)


def _bsp_trace(
    trace: tuple[JobRequest, ...] | None,
) -> tuple[JobRequest, ...] | None:
    """The all-BSP baseline version of a trace.

    A trace fixes each job's sync policy, so the simulator ignores the
    cell-level ``sync_policy``; the baseline cell must rewrite the
    trace itself or it would silently serve the trace's own policies.
    A pinned ``(protocols, fractions)`` schedule is cleared too: the
    simulator trains a pinned schedule whatever the sync policy says.
    """
    if trace is None:
        return None
    return tuple(
        replace(
            request,
            sync_policy="bsp",
            percent_override=None,
            protocols=None,
            fractions=None,
        )
        for request in trace
    )


def tuning_grid(
    scenarios: tuple[str, ...] = DEFAULT_TUNING_SCENARIOS,
    seeds: int = DEFAULT_TUNING_SEEDS,
    scale: float = DEFAULT_FLEET_SCALE,
    scheduler: str = "fifo",
    n_jobs: int | None = None,
    trace: tuple[JobRequest, ...] | None = None,
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
    protocols: tuple[str, ...] | None = None,
) -> dict[tuple[str, str, int], FleetSummary]:
    """The fleet-search comparison grid, one deduplicated batch.

    Cells are keyed ``(scenario, mode, seed)`` with two modes per
    scenario: ``"bsp"`` — every stream job trains static BSP (the
    conservative baseline the paper amortizes against; trace jobs are
    rewritten to the BSP policy) — and ``"tuned"`` — a Sync-Switch
    stream with the in-fleet Algorithm 1 search enabled, paying the
    search cost inside the same stream.  ``protocols`` upgrades the
    tuned mode's search to the N-segment schedule search over that
    protocol sequence (the baseline stays all-BSP).  Like
    :func:`fleet_grid` the batch fans through the
    :class:`~repro.experiments.executor.ParallelExecutor`, so results
    are bit-identical at any ``jobs`` worker count.
    """
    modes = {
        "bsp": {
            "sync_policy": "bsp",
            "tune": False,
            "trace": _bsp_trace(trace),
        },
        "tuned": {
            "sync_policy": "sync-switch",
            "tune": True,
            "trace": trace,
            "protocols": protocols,
        },
    }
    cells = {
        (scenario, mode, seed): FleetRunRequest(
            scenario=scenario,
            scheduler=scheduler,
            seed=seed,
            n_jobs=n_jobs,
            **options,
        )
        for scenario in scenarios
        for mode, options in modes.items()
        for seed in range(seeds)
    }
    results = _execute_cells(cells.values(), scale, jobs, cache_dir)
    return {
        key: results[request.key(scale)] for key, request in cells.items()
    }


def _aggregate_tuning_classes(summaries: list[FleetSummary]) -> list[dict]:
    """Merge per-seed policy-store rows into per-class aggregates."""
    by_class: dict[str, list[dict]] = {}
    for summary in summaries:
        for row in summary.tuning or ():
            by_class.setdefault(row["job_class"], []).append(row)
    aggregated = []
    for label in sorted(by_class):
        rows = by_class[label]
        amortized = [row["amortized_recurrences"] for row in rows]
        # search_cost_x / amortized_recurrences are None for a policy
        # that never beat BSP (infinite break-even); keep means honest.
        costs = [
            row["search_cost_x"]
            for row in rows
            if row["search_cost_x"] is not None
        ]
        schedules = {row["schedule"] for row in rows}
        aggregated.append(
            {
                "job_class": label,
                # The protocol sequence is fixed per run configuration,
                # so seeds only differ in the searched fractions.
                "schedule": " | ".join(sorted(schedules)),
                "tuned_fractions_per_seed": [row["fractions"] for row in rows],
                "tuned_percent_per_seed": [row["percent"] for row in rows],
                "search_cost_x_mean": (
                    sum(costs) / len(costs) if costs else None
                ),
                "amortized_recurrences_per_seed": amortized,
                "amortized_recurrences_mean": (
                    sum(amortized) / len(amortized)
                    if all(value is not None for value in amortized)
                    else None
                ),
                "recurrences_mean": sum(
                    row["recurrences"] for row in rows
                ) / len(rows),
                "realized_savings_s_mean": sum(
                    row["realized_savings_s"] for row in rows
                ) / len(rows),
                "breakeven_recurrence_per_seed": [
                    row["breakeven_recurrence"] for row in rows
                ],
            }
        )
    return aggregated


def tuning_summary_payload(
    grid: dict[tuple[str, str, int], FleetSummary],
    scenarios: tuple[str, ...],
    seeds: int,
    scale: float,
    scheduler: str,
    **_cells,
) -> dict:
    """Fold a tuning grid into the JSON artifact payload.

    Per scenario: per-mode mean JCT with 95% CI and per-seed values;
    for the tuned mode additionally the mean in-stream search cost,
    SLO attainment (when the stream carries deadlines) and the
    per-class amortization aggregates; plus the headline comparison
    (``tuned_speedup_x`` and whether the CIs separate).
    """
    payload: dict = {
        "scale": scale,
        "seeds": seeds,
        "scheduler": scheduler,
        "scenarios": {},
    }
    for scenario in scenarios:
        entry: dict = {}
        means: dict[str, float] = {}
        cis: dict[str, float] = {}
        for mode in ("bsp", "tuned"):
            summaries = [
                grid[(scenario, mode, seed)] for seed in range(seeds)
            ]
            jcts = [summary.mean_jct for summary in summaries]
            mean, half = confidence_interval95(jcts)
            means[mode], cis[mode] = mean, half
            block = {
                "mean_jct": mean,
                "ci95": half,
                "per_seed_jct": jcts,
            }
            attainments = [
                summary.slo_attainment
                for summary in summaries
                if summary.slo_attainment is not None
            ]
            if attainments:
                block["slo_attainment_mean"] = sum(attainments) / len(
                    attainments
                )
            if mode == "tuned":
                block["search_time_mean"] = sum(
                    summary.search_time for summary in summaries
                ) / len(summaries)
                block["classes"] = _aggregate_tuning_classes(summaries)
            entry[mode] = block
        entry["tuned_speedup_x"] = (
            means["bsp"] / means["tuned"] if means["tuned"] > 0 else None
        )
        entry["tuned_beats_bsp"] = (
            means["tuned"] + cis["tuned"] < means["bsp"] - cis["bsp"]
        )
        payload["scenarios"][scenario] = entry
    return payload


def fleet_tuning_report(payload: dict) -> Report:
    """Render a :func:`tuning_summary_payload` as the fleet-search
    :class:`Report`.

    Taking the already-built payload (rather than the raw grid) keeps
    the printed report and the JSON artifact derived from one single
    aggregation, so the two can never silently diverge.
    """
    seeds = payload["seeds"]
    rows = []
    for scenario, entry in payload["scenarios"].items():
        for mode in ("bsp", "tuned"):
            block = entry[mode]
            classes = block.get("classes") or []
            amortized = [
                cls["amortized_recurrences_mean"]
                for cls in classes
                if cls["amortized_recurrences_mean"] is not None
            ]
            realized = [
                value
                for cls in classes
                for value in cls["breakeven_recurrence_per_seed"]
                if value is not None
            ]
            schedules = sorted(
                {
                    cls["schedule"]
                    for cls in classes
                    if cls.get("schedule") is not None
                }
            )
            rows.append(
                {
                    "scenario": scenario,
                    "mode": mode,
                    "schedule": (
                        " | ".join(schedules)
                        if schedules
                        else ("BSP" if mode == "bsp" else None)
                    ),
                    "mean_jct_s": block["mean_jct"],
                    "ci95_s": block["ci95"],
                    "speedup_x": (
                        entry["tuned_speedup_x"] if mode == "tuned" else None
                    ),
                    "search_s": block.get("search_time_mean"),
                    "amortized_rec": (
                        sum(amortized) / len(amortized) if amortized else None
                    ),
                    "breakeven_rec": (
                        sum(realized) / len(realized) if realized else None
                    ),
                    "slo_attained": block.get("slo_attainment_mean"),
                }
            )
    return Report(
        ident="Fleet search",
        title=(
            "Amortized in-fleet timing search: all-BSP vs tuned "
            "Sync-Switch streams"
        ),
        columns=list(rows[0]),
        rows=rows,
        notes=[
            f"{seeds} seed(s) per cell; ci95_s is the Student-t 95% "
            "half-width on the mean JCT",
            "amortized_rec = predicted recurrences to break even "
            "(Table II accounting); breakeven_rec = recurrence at which "
            "realized savings actually covered the search cost in-run",
            "tuned streams pay their Algorithm 1 search inside the "
            "stream: search trials occupy workers and count toward JCT",
        ],
    )




# ----------------------------------------------------------------------
# the mode chain: run -> payload -> artifact -> report
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FleetMode:
    """One fleet output mode: what runs, and how its result is published.

    ``run`` names the module-level function that executes the mode's
    cells, looked up at call time so a wrapper installed on the module
    attribute (the perf ledger's spans) sees every call.
    ``payload(result, **cells)`` folds the result into the JSON
    artifact (ignoring the run-only keywords) and ``report(payload,
    result)`` renders it, so the printed report and the artifact come
    from one fold.  ``artifact`` is the default file under
    ``results/``; ``noun`` names it in log lines and report notes.
    """

    run: str
    payload: Callable[..., dict]
    report: Callable[[dict, Any], Report]
    artifact: str
    noun: str

    @property
    def default_path(self) -> Path:
        return RESULTS_DIR / self.artifact


def run_mode(
    mode: FleetMode, out: str | Path | None = None, result=None, **cells
) -> tuple[Any, Report, Path]:
    """The one fleet driver chain: run, fold, write, render.

    Runs ``mode``'s cells (unless the caller already holds the
    ``result``), writes the payload to ``out`` (else the mode's
    ``results/`` file) and returns ``(result, report, written path)``.
    """
    if result is None:
        result = globals()[mode.run](**cells)
    payload = mode.payload(result, **cells)
    target = Path(out) if out is not None else mode.default_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return result, mode.report(payload, result), target


#: The four fleet modes, by the artifact each writes.
MODES = {
    "grid": FleetMode(
        "fleet_grid",
        summary_payload,
        lambda payload, grid: fleet_report(grid, payload["scenario"]),
        "fleet_summary.json",
        "fleet summary",
    ),
    "trace-scale": FleetMode(
        "run_trace_scale",
        trace_scale_payload,
        lambda payload, _: fleet_trace_scale_report(payload),
        "fleet_trace_scale.json",
        "fleet trace-scale summary",
    ),
    "trace-metrics": FleetMode(
        "run_traced_fleet",
        trace_metrics_payload,
        lambda payload, run: fleet_trace_report(run, payload["scenario"]),
        "fleet_trace_metrics.json",
        "fleet metrics timeline",
    ),
    "tuning": FleetMode(
        "tuning_grid",
        tuning_summary_payload,
        lambda payload, _: fleet_tuning_report(payload),
        "fleet_tuning_summary.json",
        "fleet tuning summary",
    ),
}


def _artifact(mode: str, **cells) -> Callable[[ExperimentRunner], Report]:
    """A registry entry: ``mode`` at its committed cell, refreshing
    ``results/``, on the runner's cache and worker count.  Fleet cells
    are not training cells, so it declares none."""

    @declares(())
    def artifact(runner: ExperimentRunner) -> Report:
        cache_dir = runner.cache_dir if runner.cache_dir is not None else "off"
        _, report, target = run_mode(
            MODES[mode], jobs=runner.jobs, cache_dir=cache_dir, **cells
        )
        report.notes.append(
            f"{MODES[mode].noun} artifact refreshed at {target}"
        )
        return report

    return artifact


#: ``report fleet``: every scheduler x sync policy on the rush stream,
#: at the ``fleet`` CLI's default scale, so the two surfaces agree.
fleet_artifact = _artifact(
    "grid", scenario="rush", scale=DEFAULT_FLEET_SCALE, seed=0
)

#: ``report fleet-trace-scale``: a 600-job trace slice on 4 shards
#: under the SLO scheduler (the trace's prod tier carries deadlines).
fleet_trace_scale_artifact = _artifact(
    "trace-scale",
    scenario="trace",
    scheduler="slo",
    sync_policy="sync-switch",
    n_jobs=DEFAULT_TRACE_SCALE_JOBS,
    shards=DEFAULT_TRACE_SCALE_SHARDS,
    scale=DEFAULT_FLEET_SCALE,
    seed=0,
)

#: ``report fleet-trace``: the metrics timeline of one traced cell at
#: job detail.  The contended rush stream under FIFO keeps the timeline
#: readable (one admission wave, clear queue build-up) while
#: Sync-Switch exercises every span category.
fleet_trace_artifact = _artifact(
    "trace-metrics",
    scenario="rush",
    scheduler="fifo",
    sync_policy="sync-switch",
    scale=DEFAULT_FLEET_SCALE,
    seed=0,
)

#: ``report fleet-search``: the amortized tuning comparison over
#: :data:`DEFAULT_TUNING_SCENARIOS` x :data:`DEFAULT_TUNING_SEEDS`.
fleet_tuning_artifact = _artifact(
    "tuning",
    scenarios=DEFAULT_TUNING_SCENARIOS,
    seeds=DEFAULT_TUNING_SEEDS,
    scale=DEFAULT_FLEET_SCALE,
    scheduler="fifo",
)
