"""Virtual-time metrics: counters, gauges and histograms.

The fleet simulator feeds a :class:`MetricsRegistry` as it runs —
counters at decision sites (admitted / rejected / degraded jobs,
preemptions, policy-store hits), gauges on every clock advance (queue
depth, pool utilization) and histograms at job completion (JCT, queue
delay, staleness percentiles).  The registry snapshots itself on a
fixed virtual-time interval, producing a timeline that exports both
as Perfetto counter tracks and as the JSON dump behind
``report fleet-trace``.

Like the tracer, the registry is purely observational: it never
advances a clock and never draws randomness, so metered runs are
bit-identical to unmetered ones.
"""

from __future__ import annotations

import math
from typing import Any

from repro.errors import ConfigurationError

# Snapshot cadence in virtual seconds when the user does not pick one.
# Fleet runs at the default tiny scale span a few thousand virtual
# seconds, so this yields a usefully dense (but bounded) timeline.
DEFAULT_METRICS_INTERVAL = 60.0


def percentile(values: list[float], fraction: float) -> float | None:
    """Nearest-rank percentile of a sample; None on an empty one.

    The smallest value with at least ``fraction`` of the sample at or
    below it.  Empty groups are ordinary at trace scale (a tier with
    every job rejected, a shard without deadline jobs), so the empty
    case is a None result, not an IndexError.
    """
    if not values:
        return None
    ordered = sorted(values)
    rank = max(math.ceil(fraction * len(ordered)) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


def _histogram_summary(values: list[float]) -> dict[str, float]:
    """Count / mean / p50 / p95 / max via the nearest-rank rule."""
    if not values:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    ordered = sorted(values)
    return {
        "count": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "p50": percentile(ordered, 0.50),
        "p95": percentile(ordered, 0.95),
        "max": ordered[-1],
    }


class NullMetricsRegistry:
    """Do-nothing registry: the default when metrics are off."""

    enabled = False

    def inc(self, name: str, amount: float = 1.0) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def maybe_snapshot(self, now: float, tracer: Any = None) -> None:
        pass

    def payload(self, now: float = 0.0) -> dict:
        return {}


NULL_METRICS = NullMetricsRegistry()


class MetricsRegistry:
    """Counters, gauges and histograms sampled on a virtual interval.

    ``maybe_snapshot(now)`` is cheap to call on every simulator event:
    it records a snapshot only when the clock has crossed the next
    interval boundary, stamping the snapshot at the boundary itself so
    the timeline's spacing is independent of event density.
    """

    enabled = True

    def __init__(self, interval: float = DEFAULT_METRICS_INTERVAL) -> None:
        if interval <= 0:
            raise ConfigurationError(
                f"metrics interval must be positive, got {interval}"
            )
        self.interval = float(interval)
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, list[float]] = {}
        self._snapshots: list[dict] = []
        self._next_tick = float(interval)

    def inc(self, name: str, amount: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        self._histograms.setdefault(name, []).append(float(value))

    def _snapshot(self, t: float, tracer: Any = None) -> dict:
        snap = {
            "t": t,
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: _histogram_summary(values)
                for name, values in sorted(self._histograms.items())
            },
        }
        self._snapshots.append(snap)
        if tracer is not None and tracer.enabled:
            if self._gauges:
                tracer.counter("gauges", t, dict(self._gauges))
            if self._counters:
                tracer.counter("counters", t, dict(self._counters))
        return snap

    def maybe_snapshot(self, now: float, tracer: Any = None) -> None:
        """Snapshot at every interval boundary the clock has crossed."""
        while now >= self._next_tick:
            self._snapshot(self._next_tick, tracer)
            self._next_tick += self.interval

    def payload(self, now: float) -> dict:
        """Final dump: the snapshot timeline plus an end-of-run state."""
        final = {
            "t": now,
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: _histogram_summary(values)
                for name, values in sorted(self._histograms.items())
            },
        }
        return {
            "interval": self.interval,
            "snapshots": list(self._snapshots),
            "final": final,
        }
