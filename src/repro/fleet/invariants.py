"""Conservation invariants of the fleet loop, as one pure function.

The fleet-wide safety net: every
:class:`~repro.fleet.fleet_sim.FleetSimulator` run calls
:func:`check_invariants` at every event.  It only reads the state it
is handed — it never touches clocks, RNG or allocation decisions — so
it is simulation-neutral, and it can be driven directly with a
hand-built state.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.errors import FleetError
from repro.fleet.pool import WorkerPool
from repro.fleet.workload import JobRequest

__all__ = ["check_invariants"]


def check_invariants(
    pool: WorkerPool,
    queue: Sequence[JobRequest],
    running: Mapping[int, object],
    floor: int,
    last_time: float,
    now: float,
) -> None:
    """Raise :class:`FleetError` on the first violated invariant.

    The simulated clock never runs backwards (``now`` vs the previous
    event's ``last_time``), the physical ``pool`` is exactly
    partitioned between free workers and ``running`` jobs (no double
    allocation, per-tier capacity respected), no job is simultaneously
    in ``queue`` and running, and every running job's allocation sits
    between the preemption ``floor`` and its demand.  ``running`` maps
    job id to anything with ``workers`` and ``demand``.  Every message
    names the virtual time and, where one is at fault, the job.
    """
    if now < last_time - 1e-9:
        raise FleetError(
            f"t={now}: fleet clock moved backwards: {now} < {last_time}"
        )
    holders: dict[int, list[int]] = {}
    for job_id, job in running.items():
        for worker in job.workers:
            holders.setdefault(worker, []).append(job_id)
    shared = {
        worker: jobs for worker, jobs in sorted(holders.items()) if len(jobs) > 1
    }
    if shared:
        raise FleetError(
            f"t={now}: worker allocated to two running jobs at once "
            f"(worker -> jobs: {shared})"
        )
    free = pool.free_workers
    if sorted([*holders, *free]) != list(range(pool.size)):
        lost = sorted(set(range(pool.size)) - holders.keys() - set(free))
        raise FleetError(
            f"t={now}: pool partition violated: free + allocated != pool "
            f"(free: {list(free)}, neither free nor allocated: {lost})"
        )
    if pool.tiers:
        used: dict[str, list[int]] = {}
        for worker, jobs in holders.items():
            used.setdefault(pool.tier_of(worker).name, []).extend(jobs)
        for tier in pool.tiers:
            if len(used.get(tier.name, ())) > tier.count:
                raise FleetError(
                    f"t={now}: tier {tier.name!r} over-allocated: "
                    f"{len(used[tier.name])} > {tier.count} "
                    f"(held by jobs {sorted(set(used[tier.name]))})"
                )
    overlap = {request.job_id for request in queue} & set(running)
    if overlap:
        raise FleetError(
            f"t={now}: job(s) {sorted(overlap)} both queued and running"
        )
    for job_id, job in running.items():
        count = len(job.workers)
        if count > job.demand:
            raise FleetError(
                f"t={now}: job {job_id} holds {count} workers "
                f"above its demand {job.demand}"
            )
        if count < min(floor, job.demand):
            raise FleetError(
                f"t={now}: job {job_id} shrunk to {count} workers, "
                f"below the preemption floor {floor}"
            )
