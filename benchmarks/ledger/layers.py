"""Which callables mark each layer's boundary, and the counters read there.

A layer is a module path under ``src/repro/``; a span is named
``<layer>:<callable>``.  :func:`install` wraps every entry point below
with a :class:`~ledger.spans.SpanRecorder` and hooks the counters that
have to be read at the same boundary (engine steps, kernel stack width,
executor cache traffic).  Per-update calls (``push``,
``after_update``) are deliberately not wrapped: a span per simulated
update would cost more than the update.

An in-program ``--profile`` mode (ROADMAP item 2) is a later issue and
must reproduce these layer names.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from pathlib import Path

from ledger.spans import SpanRecorder

__all__ = ["LAYERS", "install", "layer_of"]

#: Layers in call order, outermost first — the rows of the layer table.
LAYERS = (
    "cli",
    "experiments.reporting",
    "experiments.runner",
    "experiments.executor",
    "experiments.fleet",
    "fleet.workload",
    "fleet.fleet_sim",
    "fleet.scheduler",
    "fleet.metrics",
    "core.runtime.controller",
    "core.runtime.elastic",
    "distsim.trainer",
    "distsim.engines",
    "mlcore.models",
    "mlcore.datasets",
)


def layer_of(span_name: str) -> str:
    """The layer a span name belongs to."""
    return span_name.split(":", 1)[0]


def install(recorder: SpanRecorder, counters: Counter) -> None:
    """Wrap every layer entry point of the (already imported) program."""
    from repro.core.runtime.controller import SyncSwitchController
    from repro.core.runtime.elastic import ElasticTrainingRun
    from repro.distsim.engines import ENGINE_REGISTRY
    from repro.distsim.trainer import DistributedTrainer
    from repro.experiments import executor, reporting
    from repro.experiments import fleet as experiments_fleet
    from repro.experiments.runner import ExperimentRunner
    from repro.fleet import metrics as fleet_metrics
    from repro.fleet import workload
    from repro.fleet.fleet_sim import FleetSimulator
    from repro.fleet.scheduler import SCHEDULERS, SchedulerPolicy
    from repro.mlcore import datasets
    from repro.mlcore.models import ResidualMLPClassifier

    def methods(cls: type, layer: str, *names: str, before=None) -> None:
        for name in names:
            if name in cls.__dict__:
                recorder.wrap_method(
                    cls, name, f"{layer}:{cls.__name__}.{name}", before
                )

    def functions(module, layer: str, *names: str, before=None) -> None:
        for name in names:
            recorder.wrap_function(
                getattr(module, name), f"{layer}:{name}", before
            )

    functions(reporting, "experiments.reporting", "prefetch_union", "render_report")
    methods(ExperimentRunner, "experiments.runner", "run_batch", "prefetch")

    def count_cache_lookup(args, kwargs):
        # Cell workers re-check the cache before training; only the
        # lookup ParallelExecutor.execute makes itself (two frames up:
        # this hook, the span wrapper, the caller) says whether the
        # cell was cached.
        if sys._getframe(2).f_code.co_name != "execute":
            return None

        def after(result) -> None:
            counters["cache_hits" if result is not None else "cache_misses"] += 1

        return after

    def count_bytes_stored(args, kwargs):
        cache_dir, key = args[0], args[1]
        if cache_dir is None:
            return None

        def after(_result) -> None:
            path = Path(cache_dir) / f"{key}.json"
            if path.exists():
                counters["bytes_stored"] += os.path.getsize(path)

        return after

    methods(executor.ParallelExecutor, "experiments.executor", "execute")
    functions(executor, "experiments.executor", "disk_load", before=count_cache_lookup)
    functions(executor, "experiments.executor", "disk_store", before=count_bytes_stored)
    # concurrent.futures.wait as the executor module looks it up: the
    # parent's time blocked on pool workers.
    recorder.patch(
        executor,
        "wait",
        recorder.timed("experiments.executor:pool_wait", executor.wait),
    )

    functions(experiments_fleet, "experiments.fleet", "run_trace_scale", "fleet_grid")
    functions(workload, "fleet.workload", "trace_stream", "poisson_stream", "assign_shards")
    methods(FleetSimulator, "fleet.fleet_sim", "run")
    for scheduler in (SchedulerPolicy, *SCHEDULERS.values()):
        methods(scheduler, "fleet.scheduler", "admit", "triage", "preemption_request")
    functions(fleet_metrics, "fleet.metrics", "summarize_fleet", "merge_fleet_summaries")
    methods(SyncSwitchController, "core.runtime.controller", "run_job")
    methods(
        ElasticTrainingRun,
        "core.runtime.elastic",
        "__init__",
        "run_to_tail",
        "advance_to",
        "run_to_completion",
        "resize",
        "fork",
        "result",
    )

    def count_engine_steps(args, kwargs):
        session = args[1]
        start = session.step

        def after(_result) -> None:
            counters["engine_steps"] += session.step - start

        return after

    methods(DistributedTrainer, "distsim.trainer", "__init__", "new_session", "finalize")
    methods(DistributedTrainer, "distsim.trainer", "run_segment", before=count_engine_steps)
    for spec in ENGINE_REGISTRY.values():
        methods(spec.factory, "distsim.engines", "run")

    def count_stack_width(args, kwargs):
        counters["stack_width_sum"] += args[1].shape[0]
        counters["stack_calls"] += 1

    methods(ResidualMLPClassifier, "mlcore.models", "loss_and_grad", "evaluate")
    methods(
        ResidualMLPClassifier,
        "mlcore.models",
        "loss_and_grad_batch",
        before=count_stack_width,
    )
    functions(datasets, "mlcore.datasets", "make_dataset")
