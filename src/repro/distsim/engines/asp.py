"""Asynchronous Parallel engine.

Semantics (paper Fig. 3b): each worker independently pulls parameters,
computes a gradient on its own mini-batch, and pushes it; the PS
applies every push immediately.  The gradient a worker pushes was
computed at the parameter version it *pulled*, which by push time is
``tau`` updates old — that realized staleness is what degrades (and at
scale, diverges) ASP training.

The engine is event-driven: worker push completions are events on a
min-heap.  PS update application is serialized (``ps_apply`` spacing),
modelling the lock the real parameter server takes per apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distsim.engines.base import (
    GradientBatcher,
    StopCondition,
    TrainingSession,
)
from repro.distsim.events import EventQueue
from repro.mlcore.compression import GradientCompressor

__all__ = ["ASPEngine"]

#: Share of the per-batch fixed overhead that is gradient/parameter
#: communication (the part gradient compression can shrink).
COMM_FRACTION = 0.5


@dataclass(slots=True)
class _WorkerState:
    """In-flight computation of one asynchronous worker."""

    params: np.ndarray
    pulled_version: int
    start_time: float


class ASPEngine:
    """Fully asynchronous event loop with real stale gradients."""

    name = "asp"
    precision = 40
    synchronous = False
    config_schema = {
        "batch_size": "per-worker mini-batch size (default: job batch size)",
        "lr_multiplier": "learning-rate scale (default: 1.0)",
        "momentum_schedule": "post-switch momentum ramp (MomentumSchedule)",
    }
    #: Set by :class:`~repro.distsim.engines.casp.CASPEngine`; plain
    #: ASP pushes dense gradients.
    _compressor: GradientCompressor | None = None

    def run(
        self,
        session: TrainingSession,
        steps: int,
        options: dict | None = None,
        stop: StopCondition | None = None,
    ) -> str:
        options = options or {}
        batch_size = int(options.get("batch_size", session.job.batch_size))
        lr_multiplier = float(options.get("lr_multiplier", 1.0))
        session.note_async_phase(options.get("momentum_schedule"))

        target = session.step + steps
        queue = EventQueue()
        states: dict[int, _WorkerState] = {}
        batcher = GradientBatcher(session, batch_size)
        ps_free_at = session.clock.now

        for worker in session.cluster.active_workers:
            self._pull_and_schedule(session, queue, states, worker, batch_size)

        try:
            while session.step < target and queue:
                event_time, worker = queue.pop()
                if not session.cluster.is_active(worker):
                    stale = states.pop(worker, None)
                    if stale is not None:
                        batcher.invalidate(worker)
                        session.ps.release(stale.params)
                    continue
                # PS applies pushes one at a time.
                apply_time = max(event_time, ps_free_at)
                ps_free_at = apply_time + session.timing.ps_apply
                session.clock.advance_to(apply_time)

                state = states[worker]
                staleness = session.ps.staleness(state.pulled_version)
                session.telemetry.record_staleness(staleness)
                loss, grad = batcher.gradient_for(worker, states)
                del states[worker]
                session.ps.release(state.params)
                if self._compressor is not None:
                    grad = self._compressor.compress(
                        grad, session.compression_rng(worker)
                    )
                lr = session.base_lr_now() * lr_multiplier
                session.ps.push(grad, lr, momentum=session.momentum_now())
                session.telemetry.record_worker_duration(
                    apply_time, worker, apply_time - state.start_time
                )

                session.step += 1
                session.telemetry.images_processed += batch_size
                session.after_update(loss)

                if stop is not None:
                    reason = stop(session)
                    if reason:
                        return reason
                # Reschedule only after the stop hook ran: it may have
                # resized the cluster (elastic shrink during an ASP
                # tail), and an evicted worker must not get new work.
                self._pull_and_schedule(
                    session, queue, states, worker, batch_size
                )
        finally:
            # Rewind the data streams of eagerly evaluated updates that
            # never got applied, so follow-up segments see exactly the
            # draws a per-update evaluation would have made — and hand
            # the in-flight snapshots back so their buffers recycle.
            batcher.rollback_unconsumed()
            for state in states.values():
                session.ps.release(state.params)
        return "completed"

    def _pull_and_schedule(
        self,
        session: TrainingSession,
        queue: EventQueue,
        states: dict[int, _WorkerState],
        worker: int,
        batch_size: int,
    ) -> None:
        """Worker pulls fresh parameters and schedules its next push.

        No-op for workers that are not active: scheduling an evicted
        worker would enqueue a push that the event loop silently drops,
        pinning its parameter snapshot until then.
        """
        if not session.cluster.is_active(worker):
            return
        params, version = session.ps.pull()
        now = session.clock.now
        states[worker] = _WorkerState(
            params=params, pulled_version=version, start_time=now
        )
        slow, latency = session.stragglers.state_at(worker, now)
        duration = session.timing.compute_time(
            batch_size, session.time_noise(worker), slow, latency
        )
        duration = max(duration - self._comm_saving(session), 1e-4)
        queue.push(now + duration, worker)

    def _comm_saving(self, session: TrainingSession) -> float:
        """Per-batch seconds saved by compressing gradient traffic."""
        if self._compressor is None:
            return 0.0
        ratio = self._compressor.compression_ratio()
        if ratio <= 1.0:
            return 0.0
        return (
            session.timing.batch_overhead * COMM_FRACTION * (1.0 - 1.0 / ratio)
        )
