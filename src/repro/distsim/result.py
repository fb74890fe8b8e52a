"""The outcome of one training run, and its JSON codec.

:class:`TrainingResult` is the summary the experiment harness consumes
and caches on disk.  It lives apart from the telemetry that produces it
so that replaying cached runs — the whole of a warm ``report`` — loads
no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TrainingResult"]


@dataclass(frozen=True)
class TrainingResult:
    """Immutable, JSON-serializable outcome of one training run."""

    plan: str
    seed: int
    n_workers: int
    total_steps: int
    completed_steps: int
    total_time: float
    diverged: bool
    diverged_step: int | None
    converged: bool
    converged_accuracy: float | None
    reported_accuracy: float | None
    best_accuracy: float | None
    final_loss: float | None
    eval_steps: tuple[int, ...]
    eval_times: tuple[float, ...]
    eval_accuracies: tuple[float, ...]
    loss_steps: tuple[int, ...]
    loss_values: tuple[float, ...]
    segment_summary: tuple[dict, ...]
    staleness: dict
    switch_count: int
    total_overhead: float
    images_processed: int

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
        return {
            "plan": self.plan,
            "seed": self.seed,
            "n_workers": self.n_workers,
            "total_steps": self.total_steps,
            "completed_steps": self.completed_steps,
            "total_time": self.total_time,
            "diverged": self.diverged,
            "diverged_step": self.diverged_step,
            "converged": self.converged,
            "converged_accuracy": self.converged_accuracy,
            "reported_accuracy": self.reported_accuracy,
            "best_accuracy": self.best_accuracy,
            "final_loss": self.final_loss,
            "eval_steps": list(self.eval_steps),
            "eval_times": list(self.eval_times),
            "eval_accuracies": list(self.eval_accuracies),
            "loss_steps": list(self.loss_steps),
            "loss_values": list(self.loss_values),
            "segment_summary": list(self.segment_summary),
            "staleness": self.staleness,
            "switch_count": self.switch_count,
            "total_overhead": self.total_overhead,
            "images_processed": self.images_processed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrainingResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            plan=data["plan"],
            seed=data["seed"],
            n_workers=data["n_workers"],
            total_steps=data["total_steps"],
            completed_steps=data["completed_steps"],
            total_time=data["total_time"],
            diverged=data["diverged"],
            diverged_step=data["diverged_step"],
            converged=data["converged"],
            converged_accuracy=data["converged_accuracy"],
            reported_accuracy=data["reported_accuracy"],
            best_accuracy=data["best_accuracy"],
            final_loss=data["final_loss"],
            eval_steps=tuple(data["eval_steps"]),
            eval_times=tuple(data["eval_times"]),
            eval_accuracies=tuple(data["eval_accuracies"]),
            loss_steps=tuple(data["loss_steps"]),
            loss_values=tuple(data["loss_values"]),
            segment_summary=tuple(data["segment_summary"]),
            staleness=data["staleness"],
            switch_count=data["switch_count"],
            total_overhead=data["total_overhead"],
            images_processed=data["images_processed"],
        )
