"""Fleet-serving throughput: wall-clock cost of one scenario grid.

Cold-cache by design: the benchmarked
call simulates the rush scenario for all three schedulers under the
Sync-Switch policy in a fresh temporary cache, so the number tracks the
cost of serving a multi-job stream through the fleet layer.  Simulated
fleet metrics (mean JCT, makespan, jobs/hour) land in ``extra_info``
and ``results/fleet_throughput.json`` so the perf trajectory captures
both the wall-clock cost and the simulated serving rate.
"""

import json
import tempfile
from pathlib import Path

from repro.experiments.fleet import fleet_grid

# benchmarks/ is not an importable package, so mirror conftest's path.
RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"

FLEET_SCALE = 0.008
FLEET_SCENARIO = "rush"


def _run_grid():
    with tempfile.TemporaryDirectory(prefix="repro-fleet-") as cache:
        return fleet_grid(
            scenario=FLEET_SCENARIO,
            policies=("sync-switch",),
            scale=FLEET_SCALE,
            cache_dir=cache,
        )


def bench_fleet_throughput(benchmark):
    grid = benchmark.pedantic(
        _run_grid, rounds=1, iterations=1, warmup_rounds=0
    )
    fifo = grid[("fifo", "sync-switch")]
    info = {
        "scenario": FLEET_SCENARIO,
        "scale": FLEET_SCALE,
        "n_jobs": fifo.n_jobs,
        "pool_size": fifo.pool_size,
        "mean_jct_s": fifo.mean_jct,
        "makespan_s": fifo.makespan,
        "utilization": fifo.utilization,
        "jobs_per_simulated_hour": (
            fifo.n_jobs / fifo.makespan * 3600.0 if fifo.makespan else None
        ),
        "schedulers": sorted(scheduler for scheduler, _ in grid),
    }
    benchmark.extra_info.update(info)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "fleet_throughput.json").write_text(
        json.dumps(info, indent=2) + "\n", encoding="utf-8"
    )
    assert all(summary.n_jobs > 0 for summary in grid.values())
