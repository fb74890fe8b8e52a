"""Extension: gradient compression combined with Sync-Switch.

The paper's related work (Section VII) marks TernGrad/QSGD-style
gradient compression as orthogonal work that "might be combined with
Sync-Switch to achieve further training speedup".  This benchmark
exercises that combination through the registry's ``casp`` engine (the
protocol N-segment schedules use), which draws quantization noise from
a dedicated per-worker compression stream: its default QSGD compressor
and the ternary one, next to dense ASP.  Expected shape: compressed
variants finish faster (smaller pushes) at near-identical accuracy
(unbiased quantization adds modest gradient variance), with the
timing/data streams bit-identical to plain ASP.

Besides the rendered table, the accuracy/time/bits trade-off lands in
``results/ext_compression.json`` for the perf trajectory.
"""

import json
from pathlib import Path

from repro.distsim.engines.asynchronous import DEFAULT_COMPRESSION
from repro.experiments.aggregate import accuracy_stats, time_stats
from repro.experiments.reporting import Report
from repro.experiments.setups import SETUPS
from repro.mlcore.compression import make_compressor

RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"

#: (row label, engine protocol, casp compressor or None for its default)
VARIANTS = (
    ("dense", "asp", None),
    ("casp", "casp", None),
    ("casp-ternary", "casp", "ternary"),
)


def _compression_report(runner) -> Report:
    setup = SETUPS[1]
    rows = []
    for label, protocol, compression in VARIANTS:
        spec = {
            "kind": "static",
            "protocol": protocol,
            "steps_scale": 0.5,
        }
        if compression is not None:
            spec["options"] = {"compression": compression}
        runs = runner.run_many(setup, spec)
        stats = accuracy_stats(runs) | time_stats(runs)
        throughputs = [
            run.segment_throughput(protocol)
            for run in runs
            if not run.diverged
        ]
        bits = (
            32.0
            if protocol == "asp"
            else make_compressor(
                compression or DEFAULT_COMPRESSION
            ).bits_per_coordinate()
        )
        rows.append(
            {
                "compression": label,
                "bits_per_coord": round(bits, 3),
                "accuracy": stats["accuracy_mean"],
                "time_s": stats["time_mean"],
                "imgs_per_s": (
                    sum(t for t in throughputs if t) / len(throughputs)
                    if throughputs
                    else None
                ),
                "diverged": stats["diverged"],
            }
        )
    return Report(
        ident="Extension: compression",
        title="Gradient compression in the ASP phase (setup 1)",
        columns=[
            "compression",
            "bits_per_coord",
            "accuracy",
            "time_s",
            "imgs_per_s",
            "diverged",
        ],
        rows=rows,
        notes=[
            "TernGrad/QSGD quantization is unbiased: accuracy holds while "
            "communication (and hence ASP cycle time) shrinks",
            "casp is the registry engine schedules use: default QSGD on a "
            "dedicated compression RNG stream, jitter/data streams "
            "bit-identical to plain ASP",
            "paper Section VII: orthogonal techniques that can combine "
            "with Sync-Switch",
        ],
    )


def _record_tradeoff(report) -> None:
    dense = next(
        row for row in report.rows if row["compression"] == "dense"
    )
    payload = {
        "rows": report.rows,
        "tradeoff": [
            {
                "compression": row["compression"],
                "compression_ratio": (
                    round(32.0 / row["bits_per_coord"], 3)
                ),
                "speedup_vs_dense": (
                    round(dense["time_s"] / row["time_s"], 3)
                    if row["time_s"]
                    else None
                ),
                "accuracy_delta_vs_dense": (
                    round(row["accuracy"] - dense["accuracy"], 4)
                    if row["accuracy"] is not None
                    and dense["accuracy"] is not None
                    else None
                ),
            }
            for row in report.rows
        ],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ext_compression.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )


def bench_ext_compression(benchmark, runner, emit):
    report = benchmark.pedantic(
        _compression_report, args=(runner,), rounds=1, iterations=1,
        warmup_rounds=0,
    )
    emit(report, "ext_compression")
    _record_tradeoff(report)
    assert report.rows, "artifact produced no measured rows"
