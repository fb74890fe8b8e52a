"""Shared session state and the engine interface.

A :class:`TrainingSession` owns everything engines need: the numeric
state (model, dataset, sharded parameter server), the simulated clock,
straggler schedule, telemetry, convergence tracking, per-worker RNG
streams and learning-rate/momentum resolution.  Engines mutate the
session; the trainer sequences engines over plan segments.
"""

from __future__ import annotations

import math
from typing import Callable, Protocol

import numpy as np

from repro.distsim.cluster import Cluster
from repro.distsim.job import JobConfig
from repro.distsim.parameter_server import ShardedParameterServer
from repro.distsim.stragglers import StragglerSchedule
from repro.distsim.telemetry import TrainingTelemetry
from repro.distsim.timing import ChunkedLognormalNoise, TimingModel
from repro.errors import DivergenceError
from repro.mlcore import scratch
from repro.mlcore.compression import GradientCompressor
from repro.mlcore.datasets import ShardIndexStream, SyntheticDataset
from repro.mlcore.metrics import ConvergenceTracker
from repro.mlcore.models import ResidualMLPClassifier
from repro.mlcore.optim import MomentumSchedule, PiecewiseDecaySchedule
from repro.distsim.events import SimClock
from repro.obs.tracer import NULL_TRACER
from repro.rng import child_rng

__all__ = ["TrainingSession", "GradientBatcher", "Engine", "StopCondition"]

#: Called after every update; returning a string stops the engine and
#: surfaces the string as the stop reason.
StopCondition = Callable[["TrainingSession"], str | None]


class TrainingSession:
    """All mutable state of one training run."""

    #: Whether updates compute gradients, losses and evaluations (see
    #: :class:`~repro.distsim.numerics_free.NumericsFreeSession`).
    numerics = True
    #: Whether updates run the periodic evaluations (see
    #: :meth:`skip_unread_evals`).
    periodic_evals = True

    def __init__(
        self,
        job: JobConfig,
        model: ResidualMLPClassifier,
        dataset: SyntheticDataset,
        timing: TimingModel,
        cluster: Cluster,
        stragglers: StragglerSchedule | None = None,
    ):
        self._init_clock(job, timing, cluster, stragglers)
        self.model = model
        self.dataset = dataset
        self.ps = ShardedParameterServer(
            model.layout,
            model.init_params(job.seed),
            cluster.spec.n_parameter_servers,
            momentum=job.momentum,
        )
        self.tracker = ConvergenceTracker()
        self._data_rngs = {
            worker: child_rng(job.seed, f"data/{worker}")
            for worker in cluster.all_workers
        }
        # Chunked index pre-draws per worker (bit-identical stream,
        # amortized Generator call overhead).
        self._index_streams = {
            worker: ShardIndexStream(
                self._data_rngs[worker],
                *dataset.shard_range(worker, cluster.spec.n_workers),
            )
            for worker in cluster.all_workers
        }
        # Dedicated compression streams are created lazily on first
        # use: runs that never compress draw nothing from them, so the
        # jitter/data streams (and golden hashes) are untouched.
        self._compression_rngs: dict[int, np.random.Generator] = {}
        self._grad_buffer: np.ndarray | None = None
        self._next_eval = 0
        self._next_loss_log = 0
        self._last_loss: float | None = None

    def _init_clock(
        self,
        job: JobConfig,
        timing: TimingModel,
        cluster: Cluster,
        stragglers: StragglerSchedule | None,
    ) -> None:
        """The timing half of the state: everything the engine loops
        read to advance the clock (all a
        :class:`~repro.distsim.numerics_free.NumericsFreeSession` has)."""
        self.job = job
        self.timing = timing
        self.cluster = cluster
        self.stragglers = stragglers or StragglerSchedule()
        self.clock = SimClock()
        self.telemetry = TrainingTelemetry()
        # Observational only; never advances the clock or draws RNG.
        # The trainer installs a live tracer when tracing is on.
        self.tracer = NULL_TRACER
        self.lr_schedule = PiecewiseDecaySchedule(job.base_lr)
        self._lr_steps = tuple(
            zip(self.lr_schedule.boundaries, self.lr_schedule.factors)
        )
        self.step = 0
        self.async_switch_step: int | None = None
        self.momentum_schedule: MomentumSchedule | None = None
        self.diverged = False
        self.diverged_step: int | None = None
        self._time_rngs = {
            worker: child_rng(job.seed, f"time/{worker}")
            for worker in cluster.all_workers
        }
        # Chunked jitter streams wrap the raw generators above: the
        # values and their order are identical to scalar draws, the
        # Generator call overhead is amortized over the chunk.
        self._time_noise = {
            worker: ChunkedLognormalNoise(rng, timing.jitter_sigma)
            for worker, rng in self._time_rngs.items()
        }

    # ------------------------------------------------------------------
    # hyper-parameter resolution
    # ------------------------------------------------------------------
    @property
    def fraction(self) -> float:
        """Progress through the step budget, in [0, 1]."""
        return min(self.step / self.job.total_steps, 1.0)

    def base_lr_now(self) -> float:
        """Per-worker learning rate at the current progress.

        Inlined :meth:`PiecewiseDecaySchedule.lr_at` (same comparisons,
        same floats) — this runs once per simulated update.
        """
        fraction = self.step / self.job.total_steps
        if fraction > 1.0:
            fraction = 1.0
        base = self.lr_schedule.base_lr
        lr = base
        for boundary, factor in self._lr_steps:
            if fraction >= boundary:
                lr = base * factor
        return lr

    def momentum_now(self) -> float:
        """Momentum, honouring any post-switch ramp schedule."""
        if self.momentum_schedule is None or self.async_switch_step is None:
            return self.job.momentum
        steps_after = max(self.step - self.async_switch_step, 0)
        epochs_after = steps_after * self.job.batch_size / len(
            self.dataset.y_train
        )
        return self.momentum_schedule.value(epochs_after)

    # ------------------------------------------------------------------
    # data access (each worker samples its own shard — data parallelism)
    # ------------------------------------------------------------------
    def worker_batch(
        self, worker: int, batch_size: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One mini-batch from ``worker``'s shard of the training data."""
        size = batch_size or self.job.batch_size
        indices = self._index_streams[worker].draw(size)
        return self.dataset.x_train[indices], self.dataset.y_train[indices]

    def global_batch(
        self, workers: tuple[int, ...], batch_size: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated per-worker batches (a BSP round's global batch).

        Index draws stay per-worker (each worker's data stream is
        unchanged), but the gather runs once over the concatenated
        indices — identical values to concatenating per-worker gathers.
        """
        size = batch_size or self.job.batch_size
        indices = np.concatenate(
            [self._index_streams[worker].draw(size) for worker in workers]
        )
        return self.dataset.x_train[indices], self.dataset.y_train[indices]

    def time_rng(self, worker: int) -> np.random.Generator:
        """The raw timing-noise generator of ``worker``.

        Shared with :meth:`time_noise` — anything else drawn from it
        interleaves with the jitter stream.
        """
        return self._time_rngs[worker]

    def time_noise(self, worker: int) -> ChunkedLognormalNoise:
        """The chunked jitter stream of ``worker`` (engine hot path)."""
        return self._time_noise[worker]

    def compression_rng(self, worker: int) -> np.random.Generator:
        """Dedicated per-worker stream for gradient-compression draws.

        Draws from this stream never interleave with the timing jitter
        (:meth:`time_rng`): compressed runs keep the exact jitter/data
        streams of uncompressed ones, and uncompressed runs never
        advance it (lazy creation).
        """
        rng = self._compression_rngs.get(worker)
        if rng is None:
            rng = child_rng(self.job.seed, f"compress/{worker}")
            self._compression_rngs[worker] = rng
        return rng

    def grad_buffer(self) -> np.ndarray:
        """Session-owned gradient buffer for ``loss_and_grad(grad_out=...)``.

        One buffer serves every engine: the gradient is consumed by the
        parameter-server push before the next evaluation overwrites it.
        """
        if self._grad_buffer is None:
            self._grad_buffer = np.empty(
                self.model.layout.size, dtype=self.ps.params.dtype
            )
        return self._grad_buffer

    # ------------------------------------------------------------------
    # gradients (the numeric half of an update)
    # ------------------------------------------------------------------
    def gradient(
        self, workers: tuple[int, ...], batch_size: int
    ) -> tuple[float, np.ndarray]:
        """Loss and gradient of one barrier round at the live parameters.

        ``workers`` each contribute ``batch_size`` samples; the mean of
        their mean-gradients is the gradient of the concatenated batch,
        so this is one big-batch pass.
        """
        inputs, labels = self.global_batch(workers, batch_size)
        return self.model.loss_and_grad(
            self.ps.peek(), inputs, labels, grad_out=self.grad_buffer()
        )

    def gradient_batcher(
        self, batch_size: int, compressor: GradientCompressor | None = None
    ) -> "GradientBatcher":
        """The push loop's source of per-worker (compressed) gradients."""
        return GradientBatcher(self, batch_size, compressor)

    # ------------------------------------------------------------------
    # logging, evaluation, divergence
    # ------------------------------------------------------------------
    def after_update(self, loss: float) -> None:
        """Bookkeeping shared by all engines after each applied update."""
        self._last_loss = float(loss)
        self.check_divergence(loss)
        if self.step >= self._next_loss_log:
            self.telemetry.record_loss(self.step, self.clock.now, loss)
            self._next_loss_log = self.step + self.job.loss_log_every
        if self.step >= self._next_eval:
            if self.periodic_evals:
                self.evaluate_now()
            self._next_eval = self.step + self.job.eval_every

    def skip_unread_evals(self) -> None:
        """Leave out the periodic evaluations when no reader sees them
        (fleet cells): a run whose ``(total_steps - 1) // eval_every + 1``
        periodic evaluations and final one can never fill a convergence
        window reports its final evaluation alone."""
        most = (self.job.total_steps - 1) // self.job.eval_every + 2
        self.periodic_evals = most >= ConvergenceTracker.window

    def evaluate_final(self) -> None:
        """Evaluate at the final step unless an evaluation covers it."""
        log = self.telemetry.eval_log
        if self.step > (log[-1][0] if log else 0):
            self.evaluate_now()

    def evaluate_now(self) -> float:
        """Evaluate test accuracy immediately and record it."""
        accuracy = self.model.evaluate(
            self.ps.peek(), self.dataset.x_test, self.dataset.y_test
        )
        self.telemetry.record_eval(self.step, self.clock.now, accuracy)
        self.tracker.update(self.clock.now, self.step, accuracy)
        if self.tracer.enabled and self.tracer.wants("job"):
            self.tracer.instant(
                "eval",
                "eval",
                self.clock.now,
                tid=1,
                args={"step": self.step, "accuracy": accuracy},
            )
        return accuracy

    def check_divergence(self, loss: float) -> None:
        """Raise :class:`DivergenceError` on loss blow-up (paper Fig. 13)."""
        if not math.isfinite(loss) or loss > self.job.divergence_threshold:
            self.diverged = True
            self.diverged_step = self.step
            raise DivergenceError(
                f"training loss diverged at step {self.step} (loss={loss})",
                step=self.step,
            )

    @property
    def last_loss(self) -> float | None:
        """Most recent mini-batch loss."""
        return self._last_loss

    def note_async_phase(self, momentum_schedule: MomentumSchedule | None) -> None:
        """Mark the start of an asynchronous phase (for momentum ramps)."""
        if self.async_switch_step is None:
            self.async_switch_step = self.step
        if momentum_schedule is not None:
            self.momentum_schedule = momentum_schedule


class GradientBatcher:
    """Deferred, batched gradient evaluation for the async engines.

    Each asynchronous worker's pending gradient is a pure function of
    its frozen parameter snapshot and its own data stream, fixed at
    pull time.  When the event loop pops a worker whose gradient is
    not cached yet, the batcher evaluates *every* in-flight worker's
    gradient in one stacked :meth:`ResidualMLPClassifier.loss_and_grad_batch`
    pass — one numpy dispatch per operation per ``n_workers`` updates
    — and serves the rest from cache as their pushes arrive.  Slice
    results are bit-identical to per-update evaluation.

    Data-stream discipline: eager evaluation draws a worker's batch
    earlier than the lazy per-pop draw, but in the same per-worker
    order.  The pre-draw generator state is saved with each entry, so
    discarding an unconsumed gradient (worker evicted, segment budget
    exhausted mid-flight) rewinds the stream to exactly where lazy
    evaluation would have left it.

    Scratch discipline: the staging matrix and the gradient stacks are
    borrowed from the process's
    :class:`~repro.mlcore.scratch.StackLender` and belong to this
    batcher until it hands them back.  Its user must call
    :meth:`rollback_unconsumed` before returning (the push loop does,
    in ``finally``): it rewinds the streams *and* returns the stacks, and
    ends the batcher's life — no gradient it served may be read after.
    """

    def __init__(
        self,
        session: "TrainingSession",
        batch_size: int,
        compressor: GradientCompressor | None = None,
    ):
        self._session = session
        self._batch_size = batch_size
        self._compressor = compressor
        self._cache: dict[int, tuple[float, np.ndarray, tuple, list]] = {}
        # Every buffer is sized for the session's provisioned worker
        # count and serves all stack widths: a K-wide evaluation works
        # on C-contiguous [:K] prefix views.  The staging matrix and
        # the batch stacks are fully consumed within each evaluation,
        # hence reusable.  The staging matrix is on loan from the
        # process's lender until rollback_unconsumed(), each gradient
        # stack until its last row has been consumed; the lender hands
        # the most recently returned stack out first, which keeps data
        # pointers stable and the model's stacked-view cache warm.
        self._capacity = capacity = session.cluster.spec.n_workers
        x_train, y_train = session.dataset.x_train, session.dataset.y_train
        self._inputs = np.empty(
            (capacity, batch_size) + x_train.shape[1:], dtype=x_train.dtype
        )
        self._labels = np.empty((capacity, batch_size), dtype=y_train.dtype)
        self._stage = self._borrow()

    def _borrow(self) -> np.ndarray:
        session = self._session
        return scratch.STACKS.borrow(
            self._capacity, session.model.layout.size, session.ps.params.dtype
        )

    def gradient_for(self, worker: int, states: dict) -> tuple[float, np.ndarray]:
        """Loss and gradient of ``worker``'s in-flight update, compressed
        from the worker's dedicated stream when a compressor is set."""
        entry = self._cache.pop(worker, None)
        if entry is None:
            self._evaluate_pending(states)
            entry = self._cache.pop(worker)
        self._consume(entry)
        grad = entry[1]
        if self._compressor is not None:
            grad = self._compressor.compress(
                grad, self._session.compression_rng(worker)
            )
        return entry[0], grad

    def invalidate(self, worker: int) -> None:
        """Drop a cached gradient and rewind the worker's data stream."""
        entry = self._cache.pop(worker, None)
        if entry is not None:
            self._session._index_streams[worker].restore(entry[2])
            self._consume(entry)

    def _consume(self, entry: tuple) -> None:
        record = entry[3]
        record[1] -= 1
        if record[1] == 0:
            scratch.STACKS.give_back(record[0])

    def rollback_unconsumed(self) -> None:
        """Rewind every unconsumed eager draw and return every borrowed
        stack (end of an engine run, and of this batcher)."""
        for worker in list(self._cache):
            self.invalidate(worker)
        scratch.STACKS.give_back(self._stage)
        self._stage = None

    def _evaluate_pending(self, states: dict) -> None:
        session = self._session
        pending = sorted(w for w in states if w not in self._cache)
        count = len(pending)
        stage = self._stage[:count]
        inputs_stack = self._inputs[:count]
        labels_stack = self._labels[:count]
        stream_marks = []
        for index, worker in enumerate(pending):
            stage[index] = states[worker].params
            stream_marks.append(session._index_streams[worker].snapshot())
            inputs_stack[index], labels_stack[index] = session.worker_batch(
                worker, self._batch_size
            )
        grad_buffer = self._borrow()
        losses, grads = session.model.loss_and_grad_batch(
            stage, inputs_stack, labels_stack, grad_out=grad_buffer[:count]
        )
        record = [grad_buffer, count]
        for index, worker in enumerate(pending):
            self._cache[worker] = (
                losses[index], grads[index], stream_marks[index], record
            )


class Engine(Protocol):
    """A protocol execution engine."""

    name: str

    def run(
        self,
        session: TrainingSession,
        steps: int,
        options: dict | None = None,
        stop: StopCondition | None = None,
    ) -> str:
        """Advance the session by up to ``steps`` steps.

        Returns ``"completed"`` when the step target was reached, or the
        string produced by the ``stop`` condition when it fired first.
        Raises :class:`~repro.errors.DivergenceError` on loss blow-up.
        """
        ...
