"""Simulation clock and event queue.

The asynchronous engines (ASP/SSP/DSSP) are event-driven: each worker's
next gradient push is an event on a priority queue ordered by simulated
time.  Ties are broken by insertion order so runs are deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError

__all__ = ["SimClock", "EventQueue"]


@dataclass
class SimClock:
    """Monotonic simulated clock (seconds)."""

    now: float = 0.0

    def advance(self, delta: float) -> float:
        """Move time forward by ``delta`` seconds and return the new time."""
        if delta < 0:
            raise ConfigurationError(f"cannot advance clock by {delta}")
        self.now += delta
        return self.now

    def advance_to(self, timestamp: float) -> float:
        """Move time forward to ``timestamp`` (no-op if in the past)."""
        if timestamp > self.now:
            self.now = timestamp
        return self.now


class EventQueue:
    """A deterministic min-heap of timestamped events.

    Entries are plain ``(time, sequence, payload)`` tuples — heap
    comparisons stop at the unique sequence number, so the payload is
    never compared and pushes/pops stay cheap in the engines' loops.
    """

    def __init__(self):
        self._heap: list[tuple[float, int, Any]] = []
        self._counter = itertools.count()

    def push(self, time: float, payload: Any) -> None:
        """Schedule ``payload`` at simulated ``time``."""
        if time < 0:
            raise ConfigurationError("event time must be non-negative")
        heapq.heappush(self._heap, (time, next(self._counter), payload))

    def pop(self) -> tuple[float, Any]:
        """Remove and return the earliest ``(time, payload)`` pair."""
        if not self._heap:
            raise ConfigurationError("pop from empty event queue")
        time, _, payload = heapq.heappop(self._heap)
        return time, payload

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
