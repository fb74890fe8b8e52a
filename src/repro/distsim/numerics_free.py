"""A session's timing half: the same clock, with null numerics.

How long a run takes is decided by the timing model alone — worker
compute draws, the straggler schedule, barrier and parameter-server
apply spacing, switch and resize overheads.  Gradients reach the clock
in one place only: a loss blow-up ends the run (divergence).  A
:class:`NumericsFreeSession` holds every piece of a session's timing
state and no numeric one: it has no model, dataset, data streams or
convergence tracker, no gradient, loss or evaluation is computed, and
its parameter server only counts versions (the realized staleness the
telemetry records, and DSSP adapts its bound to, is a version
difference).  The engine loops run unchanged on it, so its clock, step
counter, segment log and worker-duration log are bit-identical to
those of a numeric session built from the same job, cluster and
straggler schedule.

Divergence cannot be seen without the numbers; a caller that knows
the numeric run diverges at step ``s`` says so (``diverges_at``) and
the session raises the same :class:`~repro.errors.DivergenceError` at
the same update.
"""

from __future__ import annotations

import math

from repro.distsim.cluster import Cluster
from repro.distsim.engines.base import TrainingSession
from repro.distsim.job import JobConfig
from repro.distsim.stragglers import StragglerSchedule
from repro.distsim.timing import TimingModel

__all__ = ["NullParameterServer", "NumericsFreeSession"]


class NullParameterServer:
    """A parameter server's version counter, without parameters."""

    def __init__(self, version: int):
        self.version = version

    def pull(self) -> tuple[None, int]:
        return None, self.version

    def release(self, snapshot: None) -> None:
        pass

    def push(
        self, grad: None, lr: float, momentum: float | None = None
    ) -> int:
        self.version += 1
        return self.version

    def staleness(self, pulled_version: int) -> int:
        return self.version - pulled_version


class _NullBatcher:
    """The push loop's gradient source, computing nothing."""

    def gradient_for(self, worker: int, states: dict) -> tuple[float, None]:
        return 0.0, None

    def invalidate(self, worker: int) -> None:
        pass

    def rollback_unconsumed(self) -> None:
        pass


_NULL_BATCHER = _NullBatcher()


class NumericsFreeSession(TrainingSession):
    """A :class:`TrainingSession` whose updates compute nothing.

    ``diverges_at`` is the step at which the numeric run is known to
    diverge (None: it does not, as far as the caller knows); a caller
    that learns more later may reassign it.
    """

    numerics = False

    def __init__(
        self,
        job: JobConfig,
        timing: TimingModel,
        cluster: Cluster,
        stragglers: StragglerSchedule | None = None,
        diverges_at: int | None = None,
    ):
        self._init_clock(job, timing, cluster, stragglers)
        self.ps = NullParameterServer(0)
        self.diverges_at = diverges_at

    def momentum_now(self) -> float:
        # Momentum only feeds the (null) push.
        return self.job.momentum

    def gradient(
        self, workers: tuple[int, ...], batch_size: int
    ) -> tuple[float, None]:
        return 0.0, None

    def gradient_batcher(
        self, batch_size: int, compressor=None
    ) -> _NullBatcher:
        return _NULL_BATCHER

    def after_update(self, loss: float) -> None:
        if self.diverges_at is not None and self.step >= self.diverges_at:
            self.check_divergence(math.inf)
