"""Experiment runner: executes harness configurations with caching.

A *run spec* is a plain JSON-able dict describing one training
configuration (see :mod:`repro.experiments.materialize` for the spec
reference and the code that trains one); the runner executes it once
per seed and caches the resulting
:class:`~repro.distsim.result.TrainingResult` in memory and on disk
(keyed by setup, scale, spec and seed), because many figures share the
same underlying runs — exactly like the paper reuses its training logs.
A run served entirely from the cache never imports the training stack.

Batch execution and parallelism
-------------------------------

Every cell trains in a
:class:`~repro.experiments.executor.ParallelExecutor` batch:
:meth:`ExperimentRunner.run` is a batch of one, and
:meth:`ExperimentRunner.run_many` and :meth:`ExperimentRunner.sweep`
submit their full grid of ``(setup, spec, seed)`` cells as one
deduplicated batch; every artifact generator declares the cells it
reads (:func:`~repro.experiments.reporting.declares`), which train as
one batch before its rows are built.  The worker count comes from the
``jobs=`` constructor parameter, the ``REPRO_JOBS`` environment
variable, or defaults to 1 (inline, no subprocesses).  Parallel and
serial execution are bit-identical because every cell is seeded
independently.

The on-disk cache (``<cache_dir>/<key>.json``) is concurrency-safe;
:mod:`repro.experiments.executor` states its guarantees.
"""

from __future__ import annotations

from pathlib import Path

from repro.distsim.result import TrainingResult
from repro.errors import ConfigurationError
from repro.experiments.executor import (
    CALIBRATION_VERSION,
    ParallelExecutor,
    RunRequest,
    resolve_cache_dir,
    resolve_jobs,
)
from repro.experiments.setups import (
    ExperimentSetup,
    check_scale,
    default_scale,
    default_seeds,
    switch_spec,
)

__all__ = ["ExperimentRunner", "CALIBRATION_VERSION"]


class ExperimentRunner:
    """Cached executor for harness run specs.

    ``jobs`` controls batch parallelism (:meth:`run_batch`,
    :meth:`run_many`, :meth:`sweep`, :meth:`prefetch`): ``None`` reads
    ``REPRO_JOBS`` (default 1 = inline execution).
    """

    def __init__(
        self,
        scale: float | None = None,
        seeds: int | None = None,
        cache_dir: str | Path | None = None,
        jobs: int | None = None,
    ):
        self.scale = scale if scale is not None else default_scale()
        check_scale(self.scale)
        self.n_seeds = seeds if seeds is not None else default_seeds()
        if self.n_seeds < 1:
            raise ConfigurationError("--seeds must be >= 1")
        self.jobs = resolve_jobs(jobs)
        self._memory: dict[str, TrainingResult] = {}
        self._cache_dir = resolve_cache_dir(cache_dir)
        self._executor = ParallelExecutor(
            scale=self.scale, cache_dir=self._cache_dir, jobs=self.jobs
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def cache_dir(self) -> Path | None:
        """Resolved on-disk cache directory (None when disabled)."""
        return self._cache_dir

    def run(
        self, setup: ExperimentSetup, spec: dict, seed: int
    ) -> TrainingResult:
        """Execute one configuration (cached): a batch of one cell."""
        return self.run_batch([RunRequest(setup, spec, seed)])[0]

    def run_batch(self, requests: list[RunRequest]) -> list[TrainingResult]:
        """Execute a batch of cells, deduplicated, optionally in parallel.

        Cells already in the memory or disk cache are replayed; the
        rest are executed with ``self.jobs`` worker processes (inline
        when ``jobs=1``).  Results come back in request order and are
        bit-identical to serial execution.
        """
        keyed = [(request.key(self.scale), request) for request in requests]
        missing = {
            key: request for key, request in keyed if key not in self._memory
        }
        if missing:
            self._memory.update(self._executor.execute(missing.values()))
        return [self._memory[key] for key, _ in keyed]

    def prefetch(
        self,
        cells: list[tuple[ExperimentSetup, dict]],
        seeds: int | None = None,
    ) -> list[TrainingResult]:
        """Warm the cache for every ``(setup, spec)`` cell x seed.

        Callers pass their complete grid so it executes as one
        deduplicated batch; their subsequent :meth:`run_many` calls
        then assemble from cache.
        """
        count = seeds if seeds is not None else self.n_seeds
        return self.run_batch(
            [
                RunRequest(setup, spec, seed)
                for setup, spec in cells
                for seed in range(count)
            ]
        )

    def run_many(
        self,
        setup: ExperimentSetup,
        spec: dict,
        seeds: int | None = None,
    ) -> list[TrainingResult]:
        """Execute one configuration across repeated seeds (one batch)."""
        return self.prefetch([(setup, spec)], seeds)

    def sweep(
        self,
        setup: ExperimentSetup,
        percents: tuple[float, ...] | None = None,
        seeds: int | None = None,
    ) -> dict[float, list[TrainingResult]]:
        """Switch-timing sweep over ``percents`` (the per-setup grid).

        The whole ``percents x seeds`` grid is submitted as a single
        batch before assembly.
        """
        grid = percents if percents is not None else setup.sweep_percents
        self.prefetch(
            [(setup, switch_spec(percent)) for percent in grid], seeds=seeds
        )
        return {
            percent: self.run_many(setup, switch_spec(percent), seeds)
            for percent in grid
        }
