"""Parallel execution of experiment cells.

The paper's artifacts are grids of independent training runs — timing
sweeps, multi-seed repetitions, the offline binary search — so this
module provides the fan-out layer: callers collect their full set of
``(setup, spec, seed)`` cells as :class:`RunRequest` objects and submit
them as one batch to a :class:`ParallelExecutor`, which deduplicates
the batch, replays cached cells, and trains the missing ones across a
process pool.

Parallelism knobs
-----------------

* ``REPRO_JOBS`` — default worker-process count (default ``1``).
* ``jobs=`` — explicit override on :class:`ParallelExecutor`,
  :class:`~repro.experiments.runner.ExperimentRunner`, the
  ``sync-switch`` CLI (``--jobs``) and the benchmark harness.

``jobs=1`` (the default) degrades gracefully to inline execution in
the calling process: no pool is created and no subprocess is spawned,
which keeps single-cell paths (the CLI ``run`` command, unit tests)
free of multiprocessing overhead.

Cache layout and atomicity
--------------------------

Each cell is cached as ``<cache_dir>/<key>.json`` where ``key`` is a
SHA-256 digest (truncated to 24 hex chars) of the calibration version,
setup key, scale, spec and seed — see :func:`cache_key`.  The cache is
safe to share between concurrent processes:

* **Atomic writes** — :func:`disk_store` writes to a uniquely named
  temporary file in the cache directory and publishes it with
  :func:`os.replace`, so readers never observe a truncated entry, even
  if a writer is killed mid-dump.
* **Re-read before execute** — every worker re-checks the disk cache
  immediately before training (see
  :func:`~repro.experiments.materialize.execute_cell`), so a cell
  that a sibling worker or process finished in the meantime is loaded
  instead of recomputed.  Duplicate concurrent writes of the same cell
  are harmless: both writers publish byte-identical JSON.

Shared work
-----------

An inline batch of the default training cell trains the pending cells
that share a BSP opening
(:func:`~repro.experiments.materialize.opening_key`) as one work item:
:func:`~repro.experiments.materialize.execute_group` re-reads each
member from the cache, trains the opening once and stores each member
as soon as it is trained.  A pool, and any other ``cell_fn``, runs one
cell per item.

Execution is deterministic per cell — every stochastic component is
seeded from the ``(seed, label)`` pair (see :mod:`repro.rng`) — so
``jobs=N`` and ``jobs=1`` produce bit-identical
:class:`~repro.distsim.result.TrainingResult` values.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import tempfile
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Callable

from repro._lazy import resolve
from repro.distsim.result import TrainingResult
from repro.errors import ConfigurationError
from repro.experiments.setups import ExperimentSetup

__all__ = [
    "CALIBRATION_VERSION",
    "ParallelExecutor",
    "RunRequest",
    "atomic_write",
    "cache_key",
    "digest_key",
    "disk_load",
    "disk_store",
    "resolve_cache_dir",
    "resolve_jobs",
]

#: Bump to invalidate cached results after calibration changes.
CALIBRATION_VERSION = 3

_LOG = logging.getLogger("repro.experiments.executor")


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker-process count: explicit ``jobs``, else ``REPRO_JOBS``, else 1."""
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "")
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError as exc:
            raise ConfigurationError(f"bad REPRO_JOBS {raw!r}") from exc
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    return jobs


def digest_key(payload: dict) -> str:
    """Canonical cache identity: sorted-JSON -> sha256, truncated.

    The single hashing recipe shared by every cell type (training
    cells here, fleet cells in :mod:`repro.experiments.fleet`), with
    the calibration version mixed in so recalibrations invalidate
    every cache namespace at once.
    """
    canonical = json.dumps(
        {"calibration": CALIBRATION_VERSION, **payload}, sort_keys=True
    )
    return sha256(canonical.encode("utf-8")).hexdigest()[:24]


def cache_key(
    setup: ExperimentSetup, spec: dict, seed: int, scale: float
) -> str:
    """Stable cache key for one ``(setup, spec, seed)`` cell at ``scale``."""
    return digest_key(
        {"setup": setup.key, "scale": scale, "spec": spec, "seed": seed}
    )


def resolve_cache_dir(cache_dir: str | Path | None) -> Path | None:
    """Resolve (and create) the on-disk cache directory.

    ``None`` reads ``REPRO_CACHE_DIR`` and falls back to the repo-root
    ``.exp_cache``; the strings ``"0"``/``"off"``/``"none"`` disable
    disk caching entirely.
    """
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR", "") or (
            Path(__file__).resolve().parents[3] / ".exp_cache"
        )
    if isinstance(cache_dir, str) and cache_dir.lower() in ("0", "off", "none"):
        return None
    path = Path(cache_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def disk_load(cache_dir: Path | None, key: str, decode=None):
    """Load one cached cell, tolerating missing or corrupt entries.

    ``decode`` converts the stored JSON dict back into a result object
    (default: :meth:`TrainingResult.from_dict`); fleet cells pass their
    own decoder.
    """
    if cache_dir is None:
        return None
    decode = decode or TrainingResult.from_dict
    path = Path(cache_dir) / f"{key}.json"
    if not path.exists():
        return None
    try:
        with path.open("r", encoding="utf-8") as handle:
            return decode(json.load(handle))
    except (ValueError, KeyError, TypeError, OSError, ConfigurationError):
        # ValueError covers truncated JSON and non-UTF-8 bytes; a blob
        # that parses but fails its class's table (repro.codec) is the
        # same miss, so the caller recomputes and rewrites it.
        return None


def atomic_write(path: Path, write: Callable) -> None:
    """``write(handle)`` into a temp file beside ``path``, then ``os.replace``.

    Readers see the previous file or the whole new one, never a partial
    write; an interrupted writer leaves ``path`` as it was and no temp
    file behind.
    """
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        encoding="utf-8",
        dir=path.parent,
        prefix=f".{path.name}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            write(handle)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def disk_store(cache_dir: Path | None, key: str, result) -> None:
    """Atomically persist one cell (:func:`atomic_write`).

    ``result`` is anything with a ``to_dict()`` (or a plain dict).
    Concurrent writers of the same key race benignly (last replace
    wins with identical content); readers never see a partial file.
    """
    if cache_dir is None:
        return
    payload = result.to_dict() if hasattr(result, "to_dict") else result
    atomic_write(
        Path(cache_dir) / f"{key}.json",
        lambda handle: json.dump(payload, handle),
    )


@dataclass(frozen=True, eq=False)
class RunRequest:
    """One experiment cell: a setup, a run spec and a seed."""

    setup: ExperimentSetup
    spec: dict
    seed: int

    def key(self, scale: float) -> str:
        """Cache key of this cell at ``scale`` (the dedup identity)."""
        return cache_key(self.setup, self.spec, self.seed, scale)

    def datasets(self, scale: float) -> frozenset[str]:
        """Datasets the cell trains on."""
        return frozenset((self.setup.dataset,))


#: The default cell function, named rather than imported: training
#: cells need the whole training stack, which only a cache miss loads.
TRAINING_CELL = "repro.experiments.materialize:execute_cell"
#: How an inline batch of training cells shares work ("Shared work").
OPENING_KEY = "repro.experiments.materialize:opening_key"
TRAINING_GROUP = "repro.experiments.materialize:execute_group"


def _loaded(name: str):
    """What ``"module:attr"`` names if its module is imported, else None."""
    module, _, attr = name.partition(":")
    return getattr(sys.modules.get(module), attr, None)


@dataclass
class ParallelExecutor:
    """Process-pool executor for deduplicated batches of experiment cells.

    ``jobs=None`` resolves through :func:`resolve_jobs` (``REPRO_JOBS``,
    default 1).  ``jobs=1`` executes inline; larger values fan the
    batch out over a :class:`~concurrent.futures.ProcessPoolExecutor`.

    The executor is generic over the cell type: requests need a
    ``key(scale)`` identity (and may name their ``datasets(scale)``),
    ``cell_fn`` is the (picklable, top-level)
    worker receiving ``(scale, cache_dir, request, key)`` and returning
    ``(key, json_dict)`` — or its ``"module:function"`` name, imported
    on the first cache miss — and ``decode`` rebuilds the result object.
    The defaults execute :class:`RunRequest` training cells; the fleet
    scenario driver plugs in its own cell type.
    """

    scale: float
    cache_dir: Path | None = None
    jobs: int | None = None
    cell_fn: Callable | str = TRAINING_CELL
    decode: Callable = TrainingResult.from_dict
    _resolved_jobs: int = field(init=False, repr=False)

    def __post_init__(self):
        self._resolved_jobs = resolve_jobs(self.jobs)

    def execute(self, requests) -> dict:
        """Execute a batch of cells and return ``{cache_key: result}``.

        Duplicate requests (same cache key) are executed once.  Cells
        already on disk are loaded, never recomputed.
        """
        requests = list(requests)
        unique: dict[str, object] = {}
        for request in requests:
            unique.setdefault(request.key(self.scale), request)
        results: dict = {}
        pending: dict[str, object] = {}
        for key, request in unique.items():
            cached = disk_load(self.cache_dir, key, self.decode)
            if cached is not None:
                results[key] = cached
            else:
                pending[key] = request
        if not pending:
            return results
        if isinstance(self.cell_fn, str):
            # Imported here, in the parent, so that pool workers fork
            # with the cell function's stack already loaded.
            self.cell_fn = resolve(self.cell_fn)
        # Built here for the same reason, and before any cell holds
        # training state: workers share them copy-on-write.
        datasets = set()
        for request in pending.values():
            if hasattr(request, "datasets"):
                datasets |= request.datasets(self.scale)
        if datasets:
            resolve("repro.mlcore.datasets:make_datasets")(datasets)
        workers = min(self._resolved_jobs, len(pending))
        _LOG.info(
            "batch: %d cell(s) requested, %d unique, %d cached, "
            "executing %d with %d job(s)",
            len(requests),
            len(unique),
            len(results),
            len(pending),
            workers,
        )
        if workers <= 1:
            self._execute_inline(pending, results)
        else:
            self._execute_pool(pending, results, workers)
        return results

    # ------------------------------------------------------------------
    # execution strategies
    # ------------------------------------------------------------------
    def _payload(self, key, request) -> tuple:
        """A cell's payload; a group's is its keys' and requests'."""
        cache_dir = str(self.cache_dir) if self.cache_dir is not None else None
        return (self.scale, cache_dir, request, key)

    def _execute_inline(self, pending, results) -> None:
        done = 0
        for item in self._work_items(pending):
            for key, data in self._train(item):
                results[key] = self.decode(data)
                done += 1
                _LOG.info(
                    "batch progress: %d/%d cells done", done, len(pending)
                )

    def _work_items(self, pending: dict) -> list[list[tuple[str, object]]]:
        """The pending cells as inline work items of ``(key, request)``
        pairs: training cells that share a BSP opening are one item,
        every other cell is its own."""
        opening_key = None
        if self.cell_fn is _loaded(TRAINING_CELL):
            opening_key = resolve(OPENING_KEY)
        items: list[list[tuple[str, object]]] = []
        groups: dict[tuple, list[tuple[str, object]]] = {}
        for key, request in pending.items():
            group = opening_key(request, self.scale) if opening_key else None
            if group is None:
                items.append([(key, request)])
            elif group in groups:
                groups[group].append((key, request))
            else:
                groups[group] = [(key, request)]
                items.append(groups[group])
        return items

    def _train(self, item: list[tuple[str, object]]):
        """The ``(key, json_dict)`` pairs of one work item's cells."""
        if len(item) == 1:
            key, request = item[0]
            return [self.cell_fn(self._payload(key, request))]
        keys, requests = zip(*item)
        return resolve(TRAINING_GROUP)(self._payload(keys, requests))

    def _execute_pool(self, pending, results, workers: int) -> None:
        # multiprocessing is a sixth of a cache-hit run's start-up;
        # only a batch that fans out pays for it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(self.cell_fn, self._payload(key, request))
                for key, request in pending.items()
            }
            done = 0
            while futures:
                finished, futures = wait(futures, return_when=FIRST_COMPLETED)
                for future in finished:
                    key, data = future.result()
                    results[key] = self.decode(data)
                    done += 1
                    _LOG.info(
                        "batch progress: %d/%d cells done", done, len(pending)
                    )
