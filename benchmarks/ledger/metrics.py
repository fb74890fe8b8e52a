"""The metric registry: every name the ledger reports, with its unit.

``BENCHMARK.json`` at the repo root is :func:`manifest` written out;
``test_ledger.py`` keeps the two in agreement.  An end-to-end metric
carries the share of the parent's median by which it may worsen before
a change counts as a regression; per-layer metrics have no bound.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from ledger.layers import LAYERS

__all__ = [
    "END_TO_END",
    "MICRO_ROWS",
    "PER_LAYER",
    "RUN_SECONDS",
    "Metric",
    "manifest",
    "spread",
]

#: Seconds one run measures for (``--seconds`` default, ``run_seconds``).
RUN_SECONDS = 10


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only

    def entry(self) -> dict:
        """The ``BENCHMARK.json`` form."""
        entry = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            entry["bound"] = self.bound
        return entry


# Host-time bounds are wide because this class of machine is noisy:
# single-core speed moves by tens of percent for seconds at a time (see
# README "Noise"), and a run is only RUN_SECONDS long.  failed_share is
# not listed: the run protocol carries it as failed / attempted.
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("cpu_s", "s", "lower", 0.25),
    Metric("sim_steps_per_s", "steps/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.2),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("sim_accuracy", "fraction", "higher", 0.15),
    Metric("sim_time_s", "sim_s", "lower", 0.25),
)

#: Rows that drive one layer directly (see :mod:`ledger.micro`).
MICRO_ROWS = (
    Metric("mlcore.models.grad_batch_k8_b16.us", "us", "lower"),
    Metric("mlcore.models.grad_batch_k8_b128.us", "us", "lower"),
    Metric("mlcore.models.grad_single_b1024.us", "us", "lower"),
    Metric("mlcore.models.evaluate.us", "us", "lower"),
    Metric("mlcore.calibration.matmul_iter_per_s", "iter/s", "higher"),
    *(
        Metric(f"distsim.engines.{protocol}.steps_per_s", "steps/s", "higher")
        for protocol in ("bsp", "osp", "ssp", "dssp", "asp", "casp")
    ),
    Metric("distsim.parameter_server.pull_push_release.us", "us", "lower"),
    Metric("distsim.trainer.new_session.ms", "ms", "lower"),
    Metric("distsim.trainer.finalize.ms", "ms", "lower"),
    Metric("core.runtime.elastic.init.ms", "ms", "lower"),
    Metric("core.runtime.elastic.fork.ms", "ms", "lower"),
    Metric("core.runtime.elastic.resize.ms", "ms", "lower"),
    Metric("experiments.executor.noop_inline.us_per_cell", "us/cell", "lower"),
    Metric("experiments.executor.noop_pool2.ms_per_cell", "ms/cell", "lower"),
    Metric("experiments.executor.disk_store.us", "us", "lower"),
    Metric("experiments.executor.disk_load.us", "us", "lower"),
    Metric("fleet.workload.trace_stream.us_per_job", "us/job", "lower"),
    Metric("fleet.workload.assign_shards.us_per_job", "us/job", "lower"),
    Metric("fleet.metrics.merge.ms", "ms", "lower"),
    Metric("cli.import.ms", "ms", "lower"),
    Metric("cli.list.ms", "ms", "lower"),
    Metric("obs.tracer.span.us", "us", "lower"),
    Metric("obs.export.write.us_per_event", "us/event", "lower"),
    Metric("analysis.lint_src.ms", "ms", "lower"),
)

PER_LAYER = (
    # span-derived, per workload
    *(
        metric
        for layer in LAYERS
        for metric in (
            Metric(f"{layer}.self_s", "s", "lower"),
            Metric(f"{layer}.calls", "count", "lower"),
        )
    ),
    Metric("mlcore.models.grad_s", "s", "lower"),
    Metric("mlcore.models.evaluate_s", "s", "lower"),
    Metric("core.runtime.elastic.init_s", "s", "lower"),
    Metric("core.runtime.elastic.fork_s", "s", "lower"),
    Metric("core.runtime.elastic.resize_s", "s", "lower"),
    # counts and ratios, per workload
    Metric("distsim.engines.steps", "count", "lower"),
    Metric("mlcore.models.stack_width_mean", "ratio", "higher"),
    Metric("core.runtime.elastic.forks", "count", "lower"),
    Metric("core.runtime.elastic.resizes", "count", "lower"),
    Metric("core.runtime.elastic.useful_step_ratio", "ratio", "higher"),
    Metric("experiments.executor.cache_hits", "count", "higher"),
    Metric("experiments.executor.cache_misses", "count", "lower"),
    Metric("experiments.executor.bytes_stored", "bytes", "lower"),
    Metric("experiments.executor.pool_wait_s", "s", "lower"),
    Metric("experiments.executor.parallel_efficiency", "ratio", "higher"),
    Metric("core.sim_speedup_vs_bsp", "ratio", "higher"),
    Metric("core.sim_accuracy_gap_vs_bsp", "fraction", "higher"),
    Metric("unattributed_s", "s", "lower"),
    Metric("attributed_share", "fraction", "higher"),
    Metric("trace_overhead_share", "fraction", "lower"),
    *MICRO_ROWS,
)


def manifest(workloads) -> dict:
    """``BENCHMARK.json`` for ``workloads`` and the registries above."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": workload.name, "why": workload.why}
            for workload in workloads
        ],
        "end_to_end": [metric.entry() for metric in END_TO_END],
        "per_layer": [metric.entry() for metric in PER_LAYER],
    }


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / abs(median) if median else 0.0
