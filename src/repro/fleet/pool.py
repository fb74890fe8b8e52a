"""The physical worker pool and the contention its tenants share.

One straggler schedule is generated over the *physical* pool
(:func:`fleet_contention`) and each job sees the slice covering its
assigned workers from its start time onward (:func:`job_stragglers`):
two jobs overlapping on a worker observe the same burst.  (The horizon
is sized from the workload stream; a tuning search that stretches the
makespan beyond it simply sees a calm tail.)
"""

from __future__ import annotations

from repro.distsim.cluster import WorkerTier
from repro.distsim.stragglers import (
    StragglerEvent,
    StragglerSchedule,
    ambient_contention,
    tier_slowdown,
)
from repro.errors import ConfigurationError, FleetError
from repro.fleet.workload import JobRequest, estimate_service_time
from repro.rng import child_rng

__all__ = [
    "PREEMPTION_FLOOR",
    "WorkerPool",
    "check_tiers",
    "fleet_contention",
    "job_stragglers",
]

#: Fewest workers a preempted ASP job is shrunk to: the scheduler may
#: reclaim everything above it, never the job itself.
PREEMPTION_FLOOR = 2


class WorkerPool:
    """Allocatable pool of physical worker ids (lowest-id-first).

    The shared cluster of the paper's recurring-job setting
    (Section VI-C): every admitted job's workers come from here, and
    co-location on a worker id is what makes two jobs share the same
    contention bursts.

    ``tiers`` makes the pool heterogeneous: worker ids are assigned to
    tiers in declaration order (tier counts must sum to the pool
    size), so with the fast tier declared first the lowest-id-first
    allocation policy doubles as fastest-first placement.
    """

    def __init__(self, size: int, tiers: tuple[WorkerTier, ...] | None = None):
        if size <= 0:
            raise ConfigurationError("pool size must be positive")
        self.size = size
        self._free = list(range(size))
        self.tiers = tuple(tiers) if tiers else ()
        #: Tier of each worker id (empty when the pool is uniform).
        self._tier_of: tuple[WorkerTier, ...] = ()
        if self.tiers:
            check_tiers(self.tiers, size)
            assignment: list[WorkerTier] = []
            for tier in self.tiers:
                assignment.extend([tier] * tier.count)
            self._tier_of = tuple(assignment)

    @property
    def free_count(self) -> int:
        """Number of unallocated workers."""
        return len(self._free)

    @property
    def busy_count(self) -> int:
        """Number of allocated workers."""
        return self.size - len(self._free)

    @property
    def free_workers(self) -> tuple[int, ...]:
        """Sorted ids of the unallocated workers (invariant checking)."""
        return tuple(sorted(self._free))

    def tier_of(self, worker: int) -> WorkerTier | None:
        """Hardware tier of one worker id (None on a uniform pool)."""
        if not self._tier_of:
            return None
        if not 0 <= worker < self.size:
            raise FleetError(f"worker {worker} does not exist")
        return self._tier_of[worker]

    def speed_factor(self, worker: int) -> float:
        """Step-time multiplier of one worker (1.0 on a uniform pool)."""
        tier = self.tier_of(worker)
        return tier.speed_factor if tier is not None else 1.0

    def bandwidth_factor(self, worker: int) -> float:
        """Provisioning-cost multiplier of one worker id."""
        tier = self.tier_of(worker)
        return tier.bandwidth_factor if tier is not None else 1.0

    def bandwidth_for(self, workers: tuple[int, ...]) -> float:
        """Provisioning bandwidth multiplier for one allocation.

        Checkpoint/reconfigure/restart traffic crosses every assigned
        worker's link, so the allocation pays the *worst* (max)
        bandwidth factor among them; exactly 1.0 on a uniform pool, so
        homogeneous runs keep their bit-identical overhead arithmetic.
        """
        if not self.tiers:
            return 1.0
        return max(self.bandwidth_factor(worker) for worker in workers)

    def placement_slowdown(self, count: int) -> float:
        """Step-time slowdown a ``count``-worker allocation would see.

        The workers a job would get are the ``count`` lowest free ids
        (the allocation policy); synchronous training is bounded by the
        slowest of them, so this is their *worst* speed factor.  Falls
        back to the pool's overall best-case placement when fewer than
        ``count`` workers are free (the job cannot be admitted yet, but
        SLO triage still wants a feasibility estimate), and is exactly
        1.0 on a uniform pool.
        """
        if not self._tier_of:
            return 1.0
        candidates = sorted(self._free)[:count]
        if len(candidates) < count:
            candidates = list(range(min(count, self.size)))
        return max(self.speed_factor(worker) for worker in candidates)

    def allocate(self, count: int) -> tuple[int, ...]:
        """Take the ``count`` lowest free worker ids."""
        if count > len(self._free):
            raise FleetError(
                f"cannot allocate {count} workers; only {len(self._free)} free"
            )
        self._free.sort()
        taken = tuple(self._free[:count])
        del self._free[:count]
        return taken

    def release(self, workers: tuple[int, ...]) -> None:
        """Return workers to the pool."""
        for worker in workers:
            if worker in self._free or not 0 <= worker < self.size:
                raise FleetError(f"cannot release worker {worker}")
        self._free.extend(workers)


def check_tiers(tiers: tuple[WorkerTier, ...] | None, size: int) -> None:
    """Hardware tiers (none: a uniform pool) must have unique names and
    counts summing to the ``size``-worker pool."""
    if not tiers:
        return
    total = sum(tier.count for tier in tiers)
    if total != size:
        raise ConfigurationError(
            f"tier counts sum to {total}, pool has {size} workers"
        )
    names = [tier.name for tier in tiers]
    if len(set(names)) != len(names):
        raise ConfigurationError("tier names must be unique")


def fleet_contention(
    pool: WorkerPool,
    stream: tuple[JobRequest, ...],
    scale: float,
    seed: int,
    scenario_name: str,
) -> StragglerSchedule:
    """Pool-wide contention events shared by co-located jobs.

    Two event populations compose by schedule merge: transient
    ambient bursts (sized from the stream's horizon) and permanent
    hardware slowdowns of heterogeneous tiers — a slow-tier worker is
    a straggler that never recovers, so per-job slicing and resume
    re-slicing treat both uniformly.
    """
    hardware = [
        tier_slowdown(worker, tier.speed_factor, tier.extra_latency)
        for worker in range(pool.size)
        for tier in (pool.tier_of(worker),)
        if tier is not None
        and (tier.speed_factor > 1.0 or tier.extra_latency > 0.0)
    ]
    last_arrival = max((request.arrival for request in stream), default=0.0)
    longest = max(
        estimate_service_time(
            request.setup_index, 100.0, scale, request.steps_scale
        )
        for request in stream
    )
    horizon = last_arrival + 3.0 * longest
    bursts = ambient_contention(
        pool.size,
        horizon,
        child_rng(seed, f"fleet/{scenario_name}/contention"),
        mean_interval=horizon / 6.0,
        mean_duration=max(horizon / 50.0, 0.5),
        slow_factor=3.0,
    )
    if not hardware:
        return bursts
    return bursts.merged_with(StragglerSchedule(hardware))


def job_stragglers(
    contention: StragglerSchedule,
    workers: tuple[int, ...],
    now: float,
    active_after: float | None = None,
) -> StragglerSchedule:
    """Slice of the fleet contention seen by a job starting at ``now``.

    Physical-worker events still active (or future) at the cut
    instant are remapped to the job's local worker indices with
    starts shifted into job-relative time, so two jobs co-located
    on a worker see the same burst during their overlap.

    ``active_after`` re-slices at a resume instant: events are
    still expressed relative to the job's start ``now``, but only
    the portion active after the (later) fleet instant
    ``active_after`` is kept — the elastic re-simulation swaps this
    slice in when an allocation change remaps local workers onto
    different physical ones mid-run.  An empty re-slice (no events
    survive the instant) is still a schedule: it must replace the
    stale slice of the previous physical mapping.
    """
    cut = now if active_after is None else active_after
    events = []
    for local, physical in enumerate(workers):
        for event in contention.events_for(physical):
            if event.end <= cut:
                continue
            begin = max(event.start, cut)
            events.append(
                StragglerEvent(
                    worker=local,
                    start=begin - now,
                    duration=event.end - begin,
                    slow_factor=event.slow_factor,
                    extra_latency=event.extra_latency,
                )
            )
    return StragglerSchedule(events)
