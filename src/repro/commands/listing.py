"""``sync-switch list`` — show setups, artifacts and fleet scenarios."""

from __future__ import annotations

from repro.experiments import ARTIFACTS
from repro.experiments.setups import SETUPS, scaled_job
from repro.fleet.workload import FLEET_SCENARIOS, TRACE_SCENARIOS


def configure(parser) -> None:
    """``list`` takes no arguments."""


def run(_args) -> int:
    print("experiment setups:")
    for index in sorted(SETUPS):
        setup = SETUPS[index]
        job = scaled_job(setup, 1.0, 0)
        print(
            f"  {index}: {setup.describe()} "
            f"({job.total_steps} steps at scale 1, policy "
            f"{setup.policy_percent:g}%)"
        )
    print("artifacts:", ", ".join(sorted(ARTIFACTS)))
    print("fleet scenarios:")
    for name in sorted(FLEET_SCENARIOS):
        scenario = FLEET_SCENARIOS[name]
        print(
            f"  {name}: {scenario.description} "
            f"(pool {scenario.pool_size}, {scenario.n_jobs} jobs)"
        )
    print("trace scenarios:")
    for name in sorted(TRACE_SCENARIOS):
        scenario = TRACE_SCENARIOS[name]
        print(
            f"  {name}: {scenario.description} "
            f"(pool {scenario.pool_size} in {scenario.shards} shards, "
            f"{scenario.n_jobs} jobs)"
        )
    return 0
