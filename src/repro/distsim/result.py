"""The outcome of one training run, and its JSON codec.

:class:`TrainingResult` is the summary the experiment harness consumes
and caches on disk.  It lives apart from the telemetry that produces it
so that replaying cached runs — the whole of a warm ``report`` — loads
no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import coded, decode, encode

__all__ = ["TrainingResult"]


@dataclass(frozen=True)
class TrainingResult:
    """Immutable, JSON-serializable outcome of one training run."""

    plan: str
    seed: int
    n_workers: int = coded(min=1)
    total_steps: int = coded(min=0)
    completed_steps: int = coded(min=0)
    total_time: float = coded(min=0.0)
    diverged: bool
    diverged_step: int | None = coded(min=0)
    converged: bool
    converged_accuracy: float | None = coded(min=0.0, max=1.0)
    reported_accuracy: float | None = coded(min=0.0, max=1.0)
    best_accuracy: float | None = coded(min=0.0, max=1.0)
    #: The loss that tripped the divergence check may be NaN or inf.
    final_loss: float | None = coded(finite=False)
    eval_steps: tuple[int, ...] = coded(items={"min": 0})
    eval_times: tuple[float, ...] = coded(items={"min": 0.0})
    eval_accuracies: tuple[float, ...] = coded(items={"min": 0.0, "max": 1.0})
    loss_steps: tuple[int, ...] = coded(items={"min": 0})
    loss_values: tuple[float, ...]
    segment_summary: tuple[dict, ...]
    staleness: dict
    switch_count: int = coded(min=0)
    total_overhead: float = coded(min=0.0)
    images_processed: int = coded(min=0)

    @property
    def throughput(self) -> float:
        """Whole-run average throughput in images/second."""
        if self.total_time <= 0:
            return 0.0
        return self.images_processed / self.total_time

    def segment_throughput(self, protocol: str) -> float | None:
        """Average images/second across all segments of ``protocol``."""
        images = 0.0
        seconds = 0.0
        for record in self.segment_summary:
            if record["protocol"] == protocol:
                images += record["images"]
                seconds += record["duration"]
        if seconds <= 0:
            return None
        return images / seconds

    def time_to_accuracy(self, threshold: float) -> float | None:
        """First simulated time reaching ``threshold`` accuracy (or None)."""
        for time, accuracy in zip(self.eval_times, self.eval_accuracies):
            if accuracy >= threshold:
                return time
        return None

    def to_dict(self) -> dict:
        """Plain-python dict for JSON caching."""
        return encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainingResult":
        """Inverse of :meth:`to_dict`."""
        return decode(cls, data, "training result")
