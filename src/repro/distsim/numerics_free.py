"""A session's timing half: the same clock, with null numerics.

How long a run takes is decided by the timing model alone — worker
compute draws, the straggler schedule, barrier and parameter-server
apply spacing, switch and resize overheads.  Gradients reach the clock
in one place only: a loss blow-up ends the run (divergence).  A
:class:`NumericsFreeSession` is a copy of a session that keeps every
piece of timing state and replaces the numeric collaborators with null
ones: no gradient, loss or evaluation is computed, and the parameter
server only counts versions (the realized staleness the telemetry
records, and DSSP adapts its bound to, is a version difference).  The
engine loops run unchanged on it, so its clock, step counter, segment
log and worker-duration log are bit-identical to the numeric run's.

Divergence cannot be seen without the numbers; a caller that knows
the numeric run diverges at step ``s`` says so (``diverges_at``) and
the copy raises the same :class:`~repro.errors.DivergenceError` at the
same update.
"""

from __future__ import annotations

import copy
import math

from repro.distsim.engines.base import TrainingSession

__all__ = ["NullParameterServer", "NumericsFreeSession", "numerics_free"]

#: Session state only the numeric half reads: the parameter server (a
#: null one takes its place), the data and compression streams, the
#: gradient buffer and the convergence tracker.
_NUMERIC_STATE = frozenset(
    {
        "ps",
        "_data_rngs",
        "_index_streams",
        "_compression_rngs",
        "_grad_buffer",
        "tracker",
    }
)


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

    def state(self) -> dict:
        return {"version": self.version}

    def load_state(self, state: dict) -> None:
        self.version = int(state["version"])


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

    Built by :func:`numerics_free`, never directly.  ``diverges_at`` is
    the step at which the numeric run is known to diverge (None: it
    does not, as far as the caller knows).
    """

    numerics = False
    diverges_at: int | None = None

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


def numerics_free(
    session: TrainingSession, memo: dict, diverges_at: int | None = None
) -> NumericsFreeSession:
    """A numerics-free copy of ``session``'s timing state.

    ``memo`` is a :func:`copy.deepcopy` memo: objects it already maps
    are shared or substituted exactly as in a deep copy, and the new
    session is entered in it, so a deep copy of a structure holding
    ``session`` made with the same memo holds the new session instead.
    """
    timing = NumericsFreeSession.__new__(NumericsFreeSession)
    memo[id(session)] = timing
    state = {
        name: value
        for name, value in vars(session).items()
        if name not in _NUMERIC_STATE
    }
    vars(timing).update(copy.deepcopy(state, memo))
    timing.ps = NullParameterServer(session.ps.version)
    timing.diverges_at = diverges_at
    return timing
