"""Sharded parameter server with version-tracked, copy-on-write pulls.

The PS is the single numeric authority: it owns the flat parameter
vector and the optimizer (momentum slot) state.  Every applied update
increments a version counter; workers record the version they pulled,
and the difference at push time is the realized gradient staleness that
the telemetry reports (and that genuinely shaped the gradient, since
the worker computed it on the pulled copy).

Pulls are zero-copy: :meth:`ShardedParameterServer.pull` hands out a
read-only *view* of the live vector tagged with its version.  The PS
copies only when it must — a push arriving while the current buffer has
outstanding snapshot views applies the update out-of-place into a fresh
buffer (one vectorized add, no separate copy pass), leaving every
handed-out snapshot frozen at the version it was pulled.  A push with
no outstanding snapshots mutates in place.  Both paths produce
bit-identical parameter values; the ASP engines stopped paying a full
vector clone per worker per update.

Sharding across the collocated PS nodes follows the paper's layout
(equal contiguous slices per node).  Shards matter for the timing and
the tests; numerically the vector behaves as one array.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.mlcore.optim import MomentumSGD
from repro.mlcore.params import ParameterLayout

__all__ = ["ShardedParameterServer"]


class ShardedParameterServer:
    """Flat-vector parameter store with synchronous and async update paths."""

    def __init__(
        self,
        layout: ParameterLayout,
        initial_params: np.ndarray,
        n_shards: int,
        momentum: float = 0.9,
    ):
        if initial_params.shape != (layout.size,):
            raise ConfigurationError("initial parameters do not match layout")
        self.layout = layout
        self.n_shards = int(n_shards)
        self.shard_bounds = layout.shard_bounds(self.n_shards)
        self.params = initial_params.copy()
        self.optimizer = MomentumSGD(
            layout.size, momentum=momentum, dtype=initial_params.dtype
        )
        self.version = 0
        # True while the current buffer has snapshot views outstanding
        # (handed out by pull() since the buffer was last replaced).
        self._shared = False
        self._live_pulls = 0
        # Buffer recycling: a copy-on-write push parks the old buffer
        # with its outstanding snapshot count; engines release each
        # snapshot when done, and fully released buffers become the
        # next push targets.  Steady-state ASP therefore cycles
        # ~n_workers buffers instead of allocating one per update
        # (which also keeps buffer ids stable for the model's cached
        # parameter views).  A missed release only costs a fallback
        # allocation, never correctness.
        self._parked: dict[int, list] = {}  # id(buffer) -> [buffer, refs]
        self._free: list[np.ndarray] = []

    def pull(self) -> tuple[np.ndarray, int]:
        """Return a read-only parameter snapshot and its version.

        The snapshot is a zero-copy view of the live vector; it is
        frozen at the returned version because any subsequent push
        copies-on-write instead of mutating a shared buffer.  Callers
        must treat it as immutable (writes raise).
        """
        snapshot = self.params.view()
        snapshot.flags.writeable = False
        self._shared = True
        self._live_pulls += 1
        return snapshot, self.version

    def release(self, snapshot: np.ndarray) -> None:
        """Declare one pulled snapshot finished (enables buffer reuse).

        Engines call this once per processed (or discarded) pull.  When
        the last snapshot of a retired buffer is released, the buffer
        re-enters the copy-on-write target pool; releasing the last
        snapshot of the *live* buffer downgrades the next push back to
        the cheap in-place path.  Unknown snapshots (e.g. from before a
        checkpoint restore) are ignored.
        """
        base = snapshot.base if snapshot.base is not None else snapshot
        if base is self.params:
            if self._live_pulls > 0:
                self._live_pulls -= 1
                if self._live_pulls == 0:
                    self._shared = False
            return
        entry = self._parked.get(id(base))
        if entry is None:
            return
        entry[1] -= 1
        if entry[1] <= 0:
            del self._parked[id(base)]
            self._free.append(entry[0])

    def peek(self) -> np.ndarray:
        """Read-only view of the live parameters (no copy; do not mutate)."""
        return self.params

    def push(
        self,
        grad: np.ndarray,
        lr: float,
        momentum: float | None = None,
    ) -> int:
        """Apply one gradient (sync aggregate or async single push).

        Returns the new parameter version.
        """
        if grad.shape != self.params.shape:
            raise ConfigurationError("gradient shape mismatch")
        if lr <= 0:
            raise ConfigurationError("learning rate must be positive")
        velocity = self.optimizer.advance(grad, lr, momentum=momentum)
        if self._shared:
            # Copy-on-write: outstanding snapshots keep the old buffer;
            # the update lands in a recycled (or fresh) one — a single
            # out-of-place add, bit-identical to copy + in-place add.
            target = self._free.pop() if self._free else (
                np.empty_like(self.params)
            )
            np.add(self.params, velocity, out=target)
            self._parked[id(self.params)] = [self.params, self._live_pulls]
            if len(self._parked) > 256:
                # Safety valve for callers that never release: dropping
                # an entry is harmless (snapshots own their buffers).
                self._parked.pop(next(iter(self._parked)))
            self.params = target
            self._shared = False
            self._live_pulls = 0
        else:
            self.params += velocity
        self.version += 1
        return self.version

    def staleness(self, pulled_version: int) -> int:
        """Updates applied since ``pulled_version`` was handed out."""
        if pulled_version > self.version:
            raise ConfigurationError("pulled version is from the future")
        return self.version - pulled_version

    def state(self) -> dict:
        """Checkpointable snapshot (parameters, optimizer, version)."""
        return {
            "params": self.params.copy(),
            "optimizer": self.optimizer.state(),
            "version": self.version,
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state`.

        The restored vector lands in a private buffer, so snapshots
        pulled before the restore keep their pre-restore values.
        """
        params = np.asarray(state["params"])
        if params.shape != self.params.shape:
            raise ConfigurationError("checkpoint parameter shape mismatch")
        self.params = params.copy()
        self._shared = False
        self._live_pulls = 0
        self.optimizer.load_state(state["optimizer"])
        self.version = int(state["version"])
