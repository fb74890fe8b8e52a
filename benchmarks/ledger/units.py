"""One run of one workload: the unit both the driver and the ledger repeat.

:func:`measure` is the untraced run — set-up (repeated, median
reported), then the workload's command over its panel of program seeds
for ``seconds`` seconds, closed loop, one client — and yields the
end-to-end metrics.  :func:`trace` is the separate traced run that
yields the per-layer metrics.  Both return the result object the run
protocol prints: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from collections import Counter
from hashlib import sha256
from pathlib import Path

from ledger.layers import LAYERS, layer_of
from ledger.metrics import END_TO_END, PER_LAYER
from ledger.spans import self_times
from ledger.workloads import (
    HERE,
    PROCS,
    Prepared,
    Sample,
    Workload,
    by_program_seed,
    prepare,
    program_seeds,
    run_once,
    verify,
)

__all__ = ["SETUP_REPEATS", "float_fingerprint", "load_pins", "measure", "trace"]

#: Set-up runs per measured run; ``setup_s`` is their median.
SETUP_REPEATS = 3

EXPECTED = HERE / "expected.json"


def float_fingerprint() -> str:
    """Hash of a few float kernels whose last bits depend on the build.

    Digests pinned on one BLAS/libm build are meaningless on another
    (the ``REPRO_GOLDEN_SKIP`` situation); this tells the two apart
    without touching the program, so a pin mismatch on the *same*
    arithmetic is still a failure.
    """
    import numpy as np

    grid = np.arange(1, 24 * 64 + 1, dtype=np.float64).reshape(24, 64) / 977.0
    single = np.sin(grid).astype(np.float32)
    stacked = np.stack([single.T * (k + 1) for k in range(8)])
    parts = (
        stacked @ single,
        grid.T @ np.cos(grid),
        np.exp(single),
        np.log1p(grid),
        np.tanh(grid).sum(axis=0),
    )
    hasher = sha256()
    for part in parts:
        hasher.update(np.ascontiguousarray(part).tobytes())
    return hasher.hexdigest()


def load_pins(golden_skip: bool) -> tuple[dict | None, list[str]]:
    """Pinned digests by group, or ``None`` (with a notice) when they
    do not apply on this machine."""
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    if golden_skip:
        return None, ["REPRO_GOLDEN_SKIP set: digest pins not applied"]
    if expected["float_fingerprint"] != float_fingerprint():
        return None, [
            "foreign float build (fingerprint differs from expected.json): "
            "digest pins not applied"
        ]
    return expected["digests"], []


def _result(samples: list[Sample], values: dict, registry) -> dict:
    attempted = failed = 0
    for sample in samples:
        records = max(len(sample.records), 1)
        attempted += records
        failed += records if sample.failures else 0
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in registry
        },
    }


def _group(pins: dict | None, workload: Workload) -> dict | None:
    """The pins of ``workload``'s digest group (None: pins do not apply)."""
    return None if pins is None else pins.get(workload.pin, {})


def _failures(samples: list[Sample]) -> list[str]:
    return [
        f"program seed {sample.program_seed}: {failure}"
        for sample in samples
        for failure in sample.failures
    ]


# ----------------------------------------------------------------------
# the untraced run: end-to-end metrics
# ----------------------------------------------------------------------


def measure(
    workload: Workload, seed: int, seconds: float, work: Path, pins
) -> tuple[dict, list[str]]:
    """One untraced run; returns ``(result, notices)``."""
    seeds = program_seeds(workload, seed)
    setup_samples = []
    for index in range(SETUP_REPEATS):
        start = time.perf_counter()
        prepared = prepare(workload, seeds[0], work / f"setup{index}")
        setup_samples.append(time.perf_counter() - start)
    samples: list[Sample] = []
    start = time.perf_counter()
    for rep in itertools.count():
        # every program seed of the panel at least once, then until
        # the measuring time is used up
        if rep >= len(seeds) and time.perf_counter() - start >= seconds:
            break
        samples.append(
            run_once(
                workload, seeds[rep % len(seeds)], prepared, work / f"rep{rep}"
            )
        )
    notices = verify(workload, samples, prepared, _group(pins, workload))
    notices += _failures(samples)
    values = end_to_end(samples, setup_samples)
    result = _result(samples, values, END_TO_END)
    result["wall_samples"] = [sample.wall_s for sample in samples]
    return result, notices


def end_to_end(samples: list[Sample], setup_samples: list[float]) -> dict:
    """End-to-end metric values from one run's samples.

    Host-time metrics: median over the repeats of each program seed,
    then the mean over the panel.  Simulated metrics: over the result
    records of one run per program seed (repeats are identical).
    """
    by_seed = by_program_seed(samples)

    def panel_mean(field: str) -> float:
        return statistics.fmean(
            statistics.median(getattr(sample, field) for sample in group)
            for group in by_seed.values()
        )

    records = [
        record for group in by_seed.values() for record in group[0].records
    ]
    wall_s = panel_mean("wall_s")
    return {
        "wall_s": wall_s,
        "cpu_s": panel_mean("cpu_s"),
        "sim_steps_per_s": (
            sum(record["steps"] for record in records) / (wall_s * len(by_seed))
        ),
        "peak_rss_mb": panel_mean("rss_mb"),
        "setup_s": statistics.median(setup_samples),
        "sim_accuracy": statistics.fmean(
            record["accuracy"]
            for record in records
            if record["accuracy"] is not None
        ),
        "sim_time_s": statistics.fmean(
            record["sim_time"]
            for record in records
            if record["sim_time"] is not None
        ),
    }


# ----------------------------------------------------------------------
# the traced run: per-layer metrics
# ----------------------------------------------------------------------


def trace(
    workload: Workload, seed: int, work: Path, pins
) -> tuple[dict, list[str]]:
    """One traced run (plus two untraced ones to size the overhead)."""
    from ledger import micro  # imports numpy and repro: only when tracing

    first = program_seeds(workload, seed)[0]
    prepared = prepare(workload, first, work / "setup")
    plain = [
        run_once(workload, first, prepared, work / f"plain{index}")
        for index in range(2)
    ]
    traced = run_once(workload, first, prepared, work / "traced", traced=True)
    samples = [*plain, traced]
    notices = verify(workload, samples, prepared, _group(pins, workload))
    values = dict.fromkeys((metric.name for metric in PER_LAYER), 0.0)
    try:
        spans, payload = (
            json.loads((work / "traced" / name).read_text(encoding="utf-8"))
            for name in ("spans.json", "trace.json")
        )
    except (OSError, ValueError) as exc:
        traced.failures.append(f"no span file: {exc}")
    else:
        values.update(layer_values(spans, payload, traced, plain, prepared))
    if workload.pin == "paper_sweep":
        try:
            values.update(headline_pair(traced.stdout))
        except ValueError as exc:
            traced.failures.append(str(exc))
    values.update(micro.run_all())
    notices += _failures(samples)
    return _result(samples, values, PER_LAYER), notices


def layer_values(
    spans: list,
    payload: dict,
    traced: Sample,
    plain: list[Sample],
    prepared: Prepared,
) -> dict:
    """Span-derived metrics, counters and ratios of one traced run."""
    table = self_times(spans)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for name, row in table.items():
        self_s[layer_of(name)] += row["self_s"]
        calls[layer_of(name)] += row["calls"]
    # Interpreter shutdown happens after the last span closed; like
    # start-up it is what `python -m repro` pays around its own code.
    self_s["cli"] += max(traced.finished_at - payload["exited_at"], 0.0)

    def span(name: str, field: str) -> float:
        return table.get(name, {}).get(field, 0)

    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s[layer]
        values[f"{layer}.calls"] = calls[layer]
    model = "mlcore.models:ResidualMLPClassifier."
    elastic = "core.runtime.elastic:ElasticTrainingRun."
    counters = Counter(payload["counters"])
    delivered = sum(record["steps"] for record in traced.records)
    plain_wall = statistics.median(sample.wall_s for sample in plain)
    program_wall = traced.wall_s - payload["harness_s"]
    attributed = sum(self_s[layer] for layer in LAYERS)
    values.update(
        {
            "mlcore.models.grad_s": (
                span(model + "loss_and_grad", "self_s")
                + span(model + "loss_and_grad_batch", "self_s")
            ),
            "mlcore.models.evaluate_s": span(model + "evaluate", "self_s"),
            # inclusive: what one run set-up / projection copy / resize
            # costs the fleet, trainer and dataset work included
            "core.runtime.elastic.init_s": span(elastic + "__init__", "total_s"),
            "core.runtime.elastic.fork_s": span(elastic + "fork", "total_s"),
            "core.runtime.elastic.resize_s": span(elastic + "resize", "total_s"),
            "distsim.engines.steps": counters["engine_steps"],
            "mlcore.models.stack_width_mean": (
                counters["stack_width_sum"] / counters["stack_calls"]
                if counters["stack_calls"]
                else 0.0
            ),
            "core.runtime.elastic.forks": span(elastic + "fork", "calls"),
            "core.runtime.elastic.resizes": span(elastic + "resize", "calls"),
            # steps executed in this process that reached a result; 1.0
            # when it executed none (warm cache, or work done in a pool)
            "core.runtime.elastic.useful_step_ratio": (
                min(delivered / counters["engine_steps"], 1.0)
                if counters["engine_steps"]
                else 1.0
            ),
            "experiments.executor.cache_hits": counters["cache_hits"],
            "experiments.executor.cache_misses": counters["cache_misses"],
            "experiments.executor.bytes_stored": counters["bytes_stored"],
            "experiments.executor.pool_wait_s": span(
                "experiments.executor:pool_wait", "total_s"
            ),
            "experiments.executor.parallel_efficiency": (
                prepared.reference_wall_s / (PROCS * plain_wall)
                if prepared.reference_wall_s is not None
                else 1.0
            ),
            "unattributed_s": program_wall - attributed,
            "attributed_share": attributed / program_wall,
            "trace_overhead_share": traced.wall_s / plain_wall - 1.0,
        }
    )
    return values


def headline_pair(stdout: str) -> dict:
    """Setup-1 Sync-Switch against BSP, read off the printed Fig. 10 table."""
    lines = stdout.splitlines()
    try:
        start = next(
            index for index, line in enumerate(lines)
            if line.startswith("== Figure 10")
        )
    except StopIteration:
        raise ValueError("Figure 10 table not found in stdout") from None
    rows = {}
    for line in lines[start:]:
        cells = line.split()
        if len(cells) >= 4 and cells[0] == "1" and cells[1] not in rows:
            rows[cells[1]] = (float(cells[2]), float(cells[3]))
    if "BSP" not in rows or "Sync-Switch" not in rows:
        raise ValueError("Figure 10 has no setup-1 BSP / Sync-Switch rows")
    (bsp_accuracy, bsp_time), (accuracy, norm_time) = (
        rows["BSP"],
        rows["Sync-Switch"],
    )
    return {
        "core.sim_speedup_vs_bsp": bsp_time / norm_time,
        "core.sim_accuracy_gap_vs_bsp": accuracy - bsp_accuracy,
    }
