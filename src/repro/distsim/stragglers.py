"""Straggler schedules: ambient contention and injected slowdowns.

Two kinds of slowdown exist in the simulator, mirroring the paper:

* **Ambient contention** — short, random per-worker slowdowns that model
  the background noisiness of public-cloud VMs (Section III: "network
  bandwidth fluctuations...").  These are always on (at a low rate) and
  are the physical source of the bursty gradient staleness that makes
  ASP converge to lower accuracy.
* **Injected transient stragglers** — the controlled scenarios of
  Fig. 4(b) and Fig. 15: ``k`` stragglers appearing ``f`` times with an
  emulated per-packet network latency, each occurrence lasting about as
  long as provisioning a replacement VM (~100 s, Section IV-B2).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "StragglerEvent",
    "StragglerSchedule",
    "ambient_contention",
    "tier_slowdown",
    "transient_scenario",
    "DEFAULT_OCCURRENCE_DURATION",
    "PERMANENT_DURATION",
]

#: Effectively-infinite duration for hardware-tier slowdowns: a tier's
#: speed deficit never clears, but a finite sentinel keeps the
#: schedule's numpy window arithmetic free of actual infinities.
PERMANENT_DURATION = 1e15

#: Paper assumption: a transient slowdown lasts at most about the time
#: needed to provision a replacement cloud server (~100 seconds).
DEFAULT_OCCURRENCE_DURATION = 100.0


@dataclass(frozen=True)
class StragglerEvent:
    """One contiguous slowdown of one worker.

    ``slow_factor`` multiplies compute time; ``extra_latency`` is added
    per-packet network latency in seconds (e.g. ``0.010`` for the
    paper's 10 ms scenario).
    """

    worker: int
    start: float
    duration: float
    slow_factor: float = 1.0
    extra_latency: float = 0.0

    def __post_init__(self):
        if self.worker < 0:
            raise ConfigurationError("worker index must be non-negative")
        if self.start < 0 or self.duration <= 0:
            raise ConfigurationError("event must have start >= 0, duration > 0")
        if self.slow_factor < 1.0:
            raise ConfigurationError("slow_factor must be >= 1")
        if self.extra_latency < 0:
            raise ConfigurationError("extra_latency must be >= 0")

    @property
    def end(self) -> float:
        """Time at which the slowdown clears."""
        return self.start + self.duration


class StragglerSchedule:
    """Queryable collection of :class:`StragglerEvent`.

    Events are indexed per worker and sorted by start time, so the
    active-state query used on every simulated batch is O(log m).
    :meth:`add` only appends; a worker's index is (re)built by the
    first query after it changed, with one stable sort by start — the
    order repeated sort-on-insert would give, equal starts included.
    """

    def __init__(self, events: list[StragglerEvent] | None = None):
        self._by_worker: dict[int, list[StragglerEvent]] = {}
        self._starts: dict[int, list[float]] = {}
        # Columnar per-worker index for the hot-path queries:
        # (starts, ends, slow_factors, latencies), sorted by start.
        self._index: dict[int, tuple[np.ndarray, ...]] = {}
        # Per-worker memo of the last query's constant-state window:
        # (window_start, window_end, slow_factor, extra_latency).  The
        # engines query each worker at (mostly) increasing times, so
        # one computed window serves every query until the next event
        # boundary.
        self._memo: dict[int, tuple[float, float, float, float]] = {}
        #: Workers whose bucket grew since their index was built.
        self._dirty: set[int] = set()
        self._first_start = float("inf")
        self._last_end = float("-inf")
        self.events: list[StragglerEvent] = []
        for event in events or []:
            self.add(event)

    def add(self, event: StragglerEvent) -> None:
        """Insert one event (per-worker ordering is restored on query)."""
        self.events.append(event)
        self._by_worker.setdefault(event.worker, []).append(event)
        self._dirty.add(event.worker)
        self._first_start = min(self._first_start, event.start)
        self._last_end = max(self._last_end, event.end)
        self._memo.pop(event.worker, None)

    def _reindex(self) -> None:
        """Sort and re-column the bucket of every worker :meth:`add` touched."""
        for worker in sorted(self._dirty):
            bucket = self._by_worker[worker]
            bucket.sort(key=lambda e: e.start)
            self._starts[worker] = [e.start for e in bucket]
            self._index[worker] = (
                np.array(self._starts[worker]),
                np.array([e.end for e in bucket]),
                np.array([e.slow_factor for e in bucket]),
                np.array([e.extra_latency for e in bucket]),
            )
        self._dirty.clear()

    def state_at(self, worker: int, time: float) -> tuple[float, float]:
        """``(slow_factor, extra_latency)`` for ``worker`` at ``time``.

        Overlapping events compound: slow factors multiply and
        latencies add.  The active-event scan is vectorized over the
        per-worker columnar index; compounding runs in start order, so
        the floating-point result is identical to the event-loop form.
        """
        if self._dirty:
            self._reindex()
        index = self._index.get(worker)
        if index is None:
            return 1.0, 0.0
        memo = self._memo.get(worker)
        if memo is not None and memo[0] <= time < memo[1]:
            return memo[2], memo[3]
        starts, ends, factors, latencies = index
        hi = int(np.searchsorted(starts, time, side="right"))
        # The state is constant until the next event starts or an
        # active event ends; remember that window for the next query.
        window_end = starts[hi] if hi < starts.shape[0] else float("inf")
        if hi == 0:
            factor, latency = 1.0, 0.0
        else:
            started_ends = ends[:hi]
            active = np.nonzero(started_ends > time)[0]
            if active.size == 0:
                factor, latency = 1.0, 0.0
            elif active.size == 1:
                position = active[0]
                factor = float(factors[position])
                latency = float(latencies[position])
                window_end = min(window_end, float(started_ends[position]))
            else:
                factor, latency = 1.0, 0.0
                for position in active:
                    factor *= float(factors[position])
                    latency += float(latencies[position])
                window_end = min(
                    window_end, float(started_ends[active].min())
                )
        self._memo[worker] = (time, window_end, factor, latency)
        return factor, latency

    def states_at(
        self, workers: tuple[int, ...] | list[int], time: float
    ) -> list[tuple[float, float]]:
        """``state_at`` for many workers at one instant (one round).

        The BSP/SSP round loops query every active worker at the same
        simulated time; this batched form short-circuits schedules with
        no event anywhere near ``time`` and otherwise walks the
        per-worker indexes once.
        """
        if self._clear_at(time):
            return [(1.0, 0.0)] * len(workers)
        return [self.state_at(worker, time) for worker in workers]

    def _clear_at(self, time: float) -> bool:
        """True when no event anywhere can be active at ``time``."""
        return (
            not self.events
            or time < self._first_start
            or time >= self._last_end
        )

    def is_straggling(self, worker: int, time: float) -> bool:
        """Whether ``worker`` is slowed at ``time``."""
        factor, latency = self.state_at(worker, time)
        return factor > 1.0 or latency > 0.0

    def events_for(self, worker: int) -> tuple[StragglerEvent, ...]:
        """All events of ``worker``, sorted by start time."""
        if self._dirty:
            self._reindex()
        return tuple(self._by_worker.get(worker, ()))

    def active_workers(self, time: float) -> set[int]:
        """Set of workers slowed at ``time``.

        Uses the per-worker bisect index like :meth:`state_at` (this is
        called once per simulated step in the engines' hot loops), not a
        scan over the full event list.
        """
        if self._dirty:
            self._reindex()
        active = set()
        for worker, starts in self._starts.items():
            bucket = self._by_worker[worker]
            for event in bucket[: bisect_right(starts, time)]:
                if event.end > time:
                    active.add(worker)
                    break
        return active

    def next_clear_time(self, time: float) -> float | None:
        """Earliest future time at which no event is active (None if clear)."""
        active = [e for e in self.events if e.start <= time < e.end]
        if not active:
            return None
        horizon = max(e.end for e in active)
        # Events may chain: keep extending while another event overlaps
        # or starts exactly at the horizon (event starts are inclusive,
        # so a zero-overlap adjacent event still keeps a worker slow).
        changed = True
        while changed:
            changed = False
            for event in self.events:
                if event.start <= horizon and event.end > horizon:
                    horizon = event.end
                    changed = True
        return horizon

    def merged_with(self, other: "StragglerSchedule") -> "StragglerSchedule":
        """A new schedule containing both event sets."""
        return StragglerSchedule(self.events + other.events)

    def __len__(self) -> int:
        return len(self.events)


def ambient_contention(
    n_workers: int,
    horizon: float,
    rng: np.random.Generator,
    mean_interval: float = 25.0,
    mean_duration: float = 8.0,
    slow_factor: float = 4.0,
) -> StragglerSchedule:
    """Background cloud noise: Poisson per-worker slowdown bursts.

    Each worker independently experiences bursts with exponential
    inter-arrival times (``mean_interval``) and durations
    (``mean_duration``), during which its compute slows by
    ``slow_factor``.  In ASP this is what produces heavy-tailed
    gradient staleness; in BSP it stretches the barrier.
    """
    if n_workers <= 0 or horizon <= 0:
        raise ConfigurationError("n_workers and horizon must be positive")
    schedule = StragglerSchedule()
    for worker in range(n_workers):
        time = float(rng.exponential(mean_interval))
        while time < horizon:
            duration = max(0.5, float(rng.exponential(mean_duration)))
            schedule.add(
                StragglerEvent(
                    worker=worker,
                    start=time,
                    duration=duration,
                    slow_factor=slow_factor,
                )
            )
            time += duration + float(rng.exponential(mean_interval))
    return schedule


def tier_slowdown(
    worker: int,
    slow_factor: float = 1.0,
    extra_latency: float = 0.0,
) -> StragglerEvent:
    """Permanent hardware slowdown of one worker (heterogeneous tiers).

    A slow hardware tier is a straggler that never recovers: encoding
    it as an ordinary (very long) :class:`StragglerEvent` lets the
    fleet's per-job slicing, resume-time re-slicing and the engine's
    straggler pricing handle hardware speed exactly like transient
    contention — the two compose by schedule merge.
    """
    return StragglerEvent(
        worker=worker,
        start=0.0,
        duration=PERMANENT_DURATION,
        slow_factor=slow_factor,
        extra_latency=extra_latency,
    )


def transient_scenario(
    n_stragglers: int,
    occurrences: int,
    latency: float,
    window: tuple[float, float],
    rng: np.random.Generator,
    n_workers: int = 8,
    duration: float = DEFAULT_OCCURRENCE_DURATION,
) -> StragglerSchedule:
    """The paper's controlled straggler scenarios (Fig. 15).

    ``n_stragglers`` distinct workers each experience ``occurrences``
    slowdown windows of ``duration`` seconds with ``latency`` seconds
    of emulated per-packet network latency, placed uniformly at random
    inside ``window`` (the phase of training being stressed).
    """
    if n_stragglers > n_workers:
        raise ConfigurationError("more stragglers than workers")
    if n_stragglers < 0 or occurrences < 0:
        raise ConfigurationError("counts must be non-negative")
    lo, hi = window
    if hi <= lo:
        raise ConfigurationError("window must be a non-empty interval")
    schedule = StragglerSchedule()
    workers = rng.choice(n_workers, size=n_stragglers, replace=False)
    for worker in workers:
        for _ in range(occurrences):
            start = float(rng.uniform(lo, max(lo, hi - duration)))
            schedule.add(
                StragglerEvent(
                    worker=int(worker),
                    start=start,
                    duration=duration,
                    extra_latency=latency,
                )
            )
    return schedule
