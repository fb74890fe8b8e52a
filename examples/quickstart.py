"""Quickstart: train one job with BSP, ASP, and Sync-Switch.

Runs the paper's headline comparison (experiment setup 1: ResNet32-like
model on a CIFAR-10-like task, 8 simulated K80 workers) at a small
scale and prints converged accuracy, training time and throughput for
the three configurations.

Usage::

    python examples/quickstart.py [scale]

``scale`` shrinks the paper's 64K-step budget (default 0.03 ~ about a
minute of wall-clock).
"""

import sys

from repro.core.policies import PolicyManager, TimingPolicy
from repro.core.runtime import ElasticTrainingRun
from repro.distsim.cluster import ClusterSpec
from repro.experiments.setups import SETUPS, scaled_job


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.03
    setup = SETUPS[1]
    job = scaled_job(setup, scale, seed=0)
    spec = ClusterSpec(n_workers=setup.n_workers)
    print(f"workload: {setup.workload}, {job.total_steps} steps, "
          f"{setup.n_workers} workers\n")

    configurations = [
        ("BSP (static)", TimingPolicy(1.0, source="static")),
        ("ASP (static)", TimingPolicy(0.0, source="static")),
        (
            f"Sync-Switch ({setup.policy_percent:g}% BSP)",
            TimingPolicy(setup.policy_percent / 100.0, source="paper-P1"),
        ),
    ]
    rows = []
    for label, timing in configurations:
        run = ElasticTrainingRun(
            job=job,
            cluster_spec=spec,
            policies=PolicyManager(timing=timing),
            overhead_time_scale=scale,
        )
        run.run_to_completion()
        result = run.result()
        rows.append(
            (
                label,
                "DIVERGED" if result.diverged else f"{result.reported_accuracy:.4f}",
                f"{result.total_time:>8.0f}s",
                f"{result.throughput:>6.0f} img/s",
                f"{result.switch_count} switches",
            )
        )

    header = ("configuration", "accuracy", "sim time", "throughput", "overhead")
    widths = [max(len(str(row[i])) for row in rows + [header]) for i in range(5)]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))

    bsp_time = float(rows[0][2].rstrip("s"))
    sync_time = float(rows[2][2].rstrip("s"))
    print(
        f"\nSync-Switch used {sync_time / bsp_time * 100:.1f}% of BSP's "
        f"training time (paper: 19.5% at full scale)."
    )


if __name__ == "__main__":
    main()
