"""Training telemetry and results.

The telemetry object is the simulator's equivalent of the paper's
profiler data feed (Fig. 9): loss every ``loss_log_every`` steps, test
accuracy every ``eval_every`` steps, per-worker step durations for the
straggler detector, realized gradient staleness, protocol-segment
boundaries and switch overheads.

The per-update feeds (:meth:`TrainingTelemetry.record_worker_duration`,
:meth:`~TrainingTelemetry.record_staleness`) are hot-path calls, so
they land in growable typed numpy columns (:class:`TypedLog`) and a
dense staleness histogram instead of per-update tuple appends.  The
``record_*`` API, sequence-style access (``log[-1]``, iteration,
``len``) and the :class:`~repro.distsim.result.TrainingResult`
``to_dict``/``from_dict`` round-trip are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TrainingTelemetry", "SegmentRecord", "TypedLog"]

_INITIAL_CAPACITY = 64


class TypedLog:
    """Append-only columnar log backed by growable typed numpy arrays.

    Behaves like a read-only sequence of tuples (``len``, indexing with
    negative indices, iteration, equality against lists of tuples) while
    storing each column contiguously with amortized-doubling growth —
    the hot-path ``append`` writes three scalars instead of allocating a
    tuple per update, and bulk consumers read whole columns.
    """

    __slots__ = ("_columns", "_n")

    def __init__(self, *dtypes: np.dtype | type):
        self._columns = [
            np.empty(_INITIAL_CAPACITY, dtype=dtype) for dtype in dtypes
        ]
        self._n = 0

    def append(self, *values) -> None:
        """Append one row (one scalar per column)."""
        n = self._n
        if n == self._columns[0].shape[0]:
            for index, column in enumerate(self._columns):
                grown = np.empty(2 * n, dtype=column.dtype)
                grown[:n] = column
                self._columns[index] = grown
        for column, value in zip(self._columns, values):
            column[n] = value
        self._n = n + 1

    def column(self, index: int) -> np.ndarray:
        """Read-only view of one column's filled prefix."""
        view = self._columns[index][: self._n]
        view.flags.writeable = False
        return view

    def _row(self, index: int) -> tuple:
        return tuple(column[index].item() for column in self._columns)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(self._n))]
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError("TypedLog index out of range")
        return self._row(index)

    def __iter__(self):
        return (self._row(i) for i in range(self._n))

    def __eq__(self, other) -> bool:
        if isinstance(other, TypedLog):
            other = list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"TypedLog(rows={self._n}, columns={len(self._columns)})"


def _loss_log() -> TypedLog:
    return TypedLog(np.int64, np.float64, np.float64)


def _eval_log() -> TypedLog:
    return TypedLog(np.int64, np.float64, np.float64)


def _duration_log() -> TypedLog:
    return TypedLog(np.float64, np.int64, np.float64)


@dataclass
class SegmentRecord:
    """One executed protocol segment."""

    protocol: str
    start_step: int
    start_time: float
    end_step: int | None = None
    end_time: float | None = None

    @property
    def steps(self) -> int:
        """Steps covered by this segment (0 while still open)."""
        if self.end_step is None:
            return 0
        return self.end_step - self.start_step

    @property
    def duration(self) -> float:
        """Simulated seconds spent in this segment (0 while open)."""
        if self.end_time is None:
            return 0.0
        return self.end_time - self.start_time


@dataclass
class TrainingTelemetry:
    """Mutable log store filled in by the engines during a run.

    ``loss_log`` rows are ``(step, time, loss)``, ``eval_log`` rows are
    ``(step, time, accuracy)`` and ``worker_durations`` rows are
    ``(time, worker, duration)`` — as tuples on access, typed numpy
    columns underneath.  ``staleness_counts`` is a dense histogram
    exposed as the historical ``value -> count`` dict.
    """

    loss_log: TypedLog = field(default_factory=_loss_log)
    eval_log: TypedLog = field(default_factory=_eval_log)
    worker_durations: TypedLog = field(default_factory=_duration_log)
    segments: list[SegmentRecord] = field(default_factory=list)
    overheads: list[tuple[float, str, float]] = field(default_factory=list)
    images_processed: int = 0

    def __post_init__(self):
        self._staleness_hist = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._staleness_max = -1

    def record_loss(self, step: int, time: float, loss: float) -> None:
        """Append one training-loss observation."""
        self.loss_log.append(step, time, float(loss))

    def record_eval(self, step: int, time: float, accuracy: float) -> None:
        """Append one test-accuracy observation."""
        self.eval_log.append(step, time, float(accuracy))

    def record_worker_duration(
        self, time: float, worker: int, duration: float
    ) -> None:
        """Append one per-worker batch duration (straggler detection feed)."""
        self.worker_durations.append(time, worker, duration)

    def record_staleness(self, staleness: int) -> None:
        """Count one realized gradient-staleness value."""
        hist = self._staleness_hist
        if staleness >= hist.shape[0]:
            grown = np.zeros(
                max(2 * hist.shape[0], staleness + 1), dtype=np.int64
            )
            grown[: hist.shape[0]] = hist
            self._staleness_hist = hist = grown
        hist[staleness] += 1
        if staleness > self._staleness_max:
            self._staleness_max = staleness

    @property
    def staleness_counts(self) -> dict[int, int]:
        """Histogram as the historical ``staleness -> count`` mapping."""
        hist = self._staleness_hist[: self._staleness_max + 1]
        return {
            int(value): int(hist[value])
            for value in np.nonzero(hist)[0]
        }

    def staleness_high_fraction(self, threshold: int) -> float:
        """Fraction of recorded pushes with staleness >= ``threshold``.

        Histogram-backed feed for the DSSP bound adaptation — no dict
        materialisation in the engine loop.
        """
        hist = self._staleness_hist[: self._staleness_max + 1]
        total = int(hist.sum())
        if total == 0:
            return 0.0
        high = int(hist[min(threshold, hist.shape[0]) :].sum())
        return high / total

    def open_segment(self, protocol: str, step: int, time: float) -> None:
        """Mark the start of a protocol segment."""
        self.segments.append(SegmentRecord(protocol, step, time))

    def close_segment(self, step: int, time: float) -> None:
        """Mark the end of the currently open segment."""
        if self.segments and self.segments[-1].end_step is None:
            self.segments[-1].end_step = step
            self.segments[-1].end_time = time

    def record_overhead(self, time: float, kind: str, seconds: float) -> None:
        """Charge framework overhead (switching, eviction, restore)."""
        self.overheads.append((time, kind, seconds))

    @property
    def total_overhead(self) -> float:
        """Sum of all charged overheads in seconds."""
        return sum(seconds for _, _, seconds in self.overheads)

    @property
    def switch_count(self) -> int:
        """Number of protocol-switch overheads charged."""
        return sum(1 for _, kind, _ in self.overheads if kind == "switch")

    def staleness_summary(self) -> dict[str, float]:
        """Mean / p50 / p95 / max of the realized staleness distribution."""
        if self._staleness_max < 0:
            return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
        hist = self._staleness_hist[: self._staleness_max + 1]
        values = np.nonzero(hist)[0].astype(np.float64)
        counts = hist[np.nonzero(hist)[0]].astype(np.float64)
        total = counts.sum()
        mean = float((values * counts).sum() / total)
        cumulative = np.cumsum(counts) / total
        p50 = float(values[np.searchsorted(cumulative, 0.50)])
        p95 = float(values[np.searchsorted(cumulative, 0.95)])
        return {"mean": mean, "p50": p50, "p95": p95, "max": float(values[-1])}
