"""Multi-tenant fleet layer: streams of Sync-Switch jobs on one pool.

The fleet subsystem turns the single-job reproduction into a
serving-scale simulator of the paper's intended setting — recurring
training jobs on a shared cluster (Section VI-C): job arrival streams
(:mod:`repro.fleet.workload`), pluggable schedulers including
deadline/SLO-aware admission (:mod:`repro.fleet.scheduler`), the
discrete-event loop (:mod:`repro.fleet.fleet_sim`) and what it drives
— the worker pool and its shared contention (:mod:`repro.fleet.pool`),
each job's elastic lifecycle (:mod:`repro.fleet.running`) and the
invariant checker (:mod:`repro.fleet.invariants`) — the amortized
Algorithm 1 timing search run as fleet jobs
(:mod:`repro.fleet.tuning`) with its per-class policy cache and
break-even ledger (:mod:`repro.fleet.policy_store`), and fleet
telemetry (:mod:`repro.fleet.metrics`).
"""

from repro._lazy import lazy_exports

__all__ = [
    "DEFAULT_TENANT_TIERS",
    "FLEET_SCENARIOS",
    "JOB_KINDS",
    "SCHEDULERS",
    "STORE_FORMAT_VERSION",
    "SYNC_POLICIES",
    "TRACE_SCENARIOS",
    "BestFitScheduler",
    "ClassPolicy",
    "FifoScheduler",
    "FleetConfig",
    "FleetScenario",
    "FleetSimulator",
    "FleetSummary",
    "JobClass",
    "JobRecord",
    "JobRequest",
    "PolicyStore",
    "SchedulerContext",
    "SchedulerPolicy",
    "SloAwareScheduler",
    "SmallestJobFirstScheduler",
    "TenantTier",
    "TraceScenario",
    "WorkerPool",
    "assign_shards",
    "bounded_pareto",
    "estimate_service_time",
    "load_trace",
    "make_scheduler",
    "merge_fleet_summaries",
    "percentile",
    "poisson_stream",
    "policy_from_search",
    "resolve_percent",
    "save_trace",
    "simulate_fleet",
    "summarize_fleet",
    "trace_stream",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.fleet.fleet_sim": (
            "FleetConfig",
            "FleetSimulator",
            "simulate_fleet",
        ),
        "repro.fleet.pool": ("WorkerPool",),
        "repro.fleet.metrics": (
            "FleetSummary",
            "JobRecord",
            "merge_fleet_summaries",
            "percentile",
            "summarize_fleet",
        ),
        "repro.fleet.policy_store": (
            "STORE_FORMAT_VERSION",
            "ClassPolicy",
            "JobClass",
            "PolicyStore",
            "policy_from_search",
        ),
        "repro.fleet.scheduler": (
            "SCHEDULERS",
            "BestFitScheduler",
            "FifoScheduler",
            "SchedulerContext",
            "SchedulerPolicy",
            "SloAwareScheduler",
            "SmallestJobFirstScheduler",
            "make_scheduler",
        ),
        "repro.fleet.workload": (
            "DEFAULT_TENANT_TIERS",
            "FLEET_SCENARIOS",
            "JOB_KINDS",
            "SYNC_POLICIES",
            "TRACE_SCENARIOS",
            "FleetScenario",
            "JobRequest",
            "TenantTier",
            "TraceScenario",
            "assign_shards",
            "bounded_pareto",
            "estimate_service_time",
            "load_trace",
            "poisson_stream",
            "resolve_percent",
            "save_trace",
            "trace_stream",
        ),
    },
)
