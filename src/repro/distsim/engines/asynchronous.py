"""The asynchronous push loop: ASP, and ASP with a bound or a compressor.

ASP semantics (paper Fig. 3b): each worker independently pulls
parameters, computes a gradient on its own mini-batch, and pushes it;
the PS applies every push immediately.  The gradient a worker pushes
was computed at the parameter version it *pulled*, which by push time
is ``tau`` updates old — that realized staleness is what degrades (and
at scale, diverges) ASP training.

The loop, :func:`run_push_loop`, is event-driven: worker push
completions are events on a min-heap.  PS update application is
serialized (``ps_apply`` spacing), modelling the lock the real
parameter server takes per apply.  The other asynchronous protocols
are this loop with one thing added; the four registry classes differ
only in what they pass it:

* **SSP** (Ho et al., NeurIPS 2013 — the paper's reference [33]) bounds
  the spread of the workers' iteration counts: a worker more than
  ``staleness_bound`` iterations ahead of the slowest *active* worker
  is held until the slowest catches up.  A bound of 0 degenerates to
  BSP-like lockstep (still with per-push updates); a bound no push
  reaches is ASP, bit for bit.  Sync-Switch itself only selects between
  BSP and ASP, but is explicitly "agnostic to the underlying
  synchronization protocols" (Section VI) — the bound exists so plans
  like SSP->ASP can be expressed and benchmarked.
* **DSSP** (Zhao et al., ICDCS 2019 — the paper's reference [8]) moves
  the bound inside ``[lower_bound, upper_bound]`` at runtime, by a
  simple, documented rule rather than the original paper's lookup-table
  scheme: every ``adapt_every`` pushes it measures how often workers
  were blocked at the SSP barrier; a high blocking rate relaxes the
  bound (towards throughput), a low one tightens it (towards
  freshness).  The behavioural envelope — throughput between SSP and
  ASP with bounded realized staleness — is what Sync-Switch's
  comparisons need.
* **CASP** is the QSync-style quantized push (PAPERS.md: arXiv
  2407.02327): every pushed gradient first passes through an unbiased
  compressor from :mod:`repro.mlcore.compression` (default: QSGD), and
  the communication share of the per-batch fixed overhead shrinks by
  the compression ratio (:func:`comm_saving`).  Compression noise is
  drawn from the session's dedicated lazily-created
  ``compress/{worker}`` child streams, never from the timing-jitter
  stream: uncompressed runs stay bit-identical to the committed golden
  hashes, and a casp run's timing and data streams are bit-identical
  to the equivalent plain-ASP run's.
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
from repro.mlcore.compression import GradientCompressor, make_compressor

__all__ = ["ASPEngine", "CASPEngine", "DSSPEngine", "SSPEngine"]

#: Share of the per-batch fixed overhead that is gradient/parameter
#: communication (the part gradient compression can shrink).
COMM_FRACTION = 0.5

#: Compressor used when a casp plan does not pick one explicitly.
DEFAULT_COMPRESSION = "qsgd"

DEFAULT_STALENESS_BOUND = 3
#: DSSP's adaptive range and the pushes between two adaptations.
DEFAULT_LOWER_BOUND = 2
DEFAULT_UPPER_BOUND = 8
DEFAULT_ADAPT_EVERY = 64

_SCHEMA = {
    "batch_size": "per-worker mini-batch size (default: job batch size)",
    "lr_multiplier": "learning-rate scale (default: 1.0)",
    "momentum_schedule": "post-switch momentum ramp (MomentumSchedule)",
}


@dataclass(slots=True)
class _WorkerState:
    """In-flight computation of one asynchronous worker."""

    params: np.ndarray
    pulled_version: int
    start_time: float


def comm_saving(
    session: TrainingSession, compressor: GradientCompressor | None
) -> float:
    """Per-batch seconds saved by compressing gradient traffic."""
    ratio = 1.0 if compressor is None else compressor.compression_ratio()
    if ratio <= 1.0:
        return 0.0
    return session.timing.batch_overhead * COMM_FRACTION * (1.0 - 1.0 / ratio)


def pull_and_schedule(
    session: TrainingSession,
    queue: EventQueue,
    states: dict[int, _WorkerState],
    worker: int,
    batch_size: int,
    saving: float = 0.0,
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
    states[worker] = _WorkerState(params, version, now)
    slow, latency = session.stragglers.state_at(worker, now)
    duration = session.timing.compute_time(
        batch_size, session.time_noise(worker), slow, latency
    )
    if saving:
        duration = max(duration - saving, 1e-4)
    queue.push(now + duration, worker)


def run_push_loop(
    session: TrainingSession,
    steps: int,
    options: dict | None,
    stop: StopCondition | None,
    bound: int | None = None,
    compressor: GradientCompressor | None = None,
) -> str:
    """Free-running pushes; ``bound`` holds workers that run too far
    ahead of the slowest, ``compressor`` quantizes what they push."""
    options = options or {}
    batch_size = int(options.get("batch_size", session.job.batch_size))
    lr_multiplier = float(options.get("lr_multiplier", 1.0))
    session.note_async_phase(options.get("momentum_schedule"))
    saving = comm_saving(session, compressor)

    target = session.step + steps
    queue = EventQueue()
    states: dict[int, _WorkerState] = {}
    batcher = GradientBatcher(session, batch_size)
    ps_free_at = session.clock.now
    # Pushes applied per worker and the workers held at the bound:
    # only a bounded run reads or updates either.
    iterations = dict.fromkeys(session.cluster.active_workers, 0)
    blocked: set[int] = set()

    for worker in iterations:
        pull_and_schedule(session, queue, states, worker, batch_size, saving)

    try:
        while session.step < target and queue:
            event_time, worker = queue.pop()
            if not session.cluster.is_active(worker):
                batcher.invalidate(worker)
                session.ps.release(states.pop(worker).params)
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
            if compressor is not None:
                grad = compressor.compress(
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
            # Restart workers only after the stop hook ran: it may have
            # shrunk the cluster (elastic resize during an asynchronous
            # tail), and an evicted worker must not get new work — nor
            # a paused segment a jitter draw.
            if bound is None:
                pull_and_schedule(
                    session, queue, states, worker, batch_size, saving
                )
                continue
            # SSP condition: a worker may start iteration c+1 only if
            # c - floor <= bound, the floor taken over the *active*
            # workers so that an eviction cannot freeze it.  The pusher
            # first, then — it may have raised the floor — the held.
            iterations[worker] += 1
            is_active = session.cluster.is_active
            floor = min(
                (done for w, done in iterations.items() if is_active(w)),
                default=0,
            )
            for candidate in (worker, *sorted(blocked)):
                if iterations[candidate] - floor <= bound:
                    blocked.discard(candidate)
                    pull_and_schedule(
                        session, queue, states, candidate, batch_size, saving
                    )
                else:
                    blocked.add(candidate)
    finally:
        # Rewind the data streams of eagerly evaluated updates that
        # never got applied, so follow-up segments see exactly the
        # draws a per-update evaluation would have made — and hand
        # the in-flight snapshots back so their buffers recycle.
        batcher.rollback_unconsumed()
        for state in states.values():
            session.ps.release(state.params)
    return "completed"


class ASPEngine:
    """Fully asynchronous event loop with real stale gradients."""

    name = "asp"
    precision = 40
    synchronous = False
    config_schema = _SCHEMA

    def run(
        self,
        session: TrainingSession,
        steps: int,
        options: dict | None = None,
        stop: StopCondition | None = None,
    ) -> str:
        return run_push_loop(session, steps, options, stop)


class CASPEngine:
    """ASP with compressed pushes on a dedicated RNG stream."""

    name = "casp"
    precision = 50
    synchronous = False
    config_schema = {
        **_SCHEMA,
        "compression": f"gradient compressor name or instance (default: "
        f"{DEFAULT_COMPRESSION!r})",
    }

    def run(
        self,
        session: TrainingSession,
        steps: int,
        options: dict | None = None,
        stop: StopCondition | None = None,
    ) -> str:
        spec = (options or {}).get("compression", DEFAULT_COMPRESSION)
        if isinstance(spec, str):
            spec = make_compressor(spec)
        return run_push_loop(session, steps, options, stop, compressor=spec)


class SSPEngine:
    """Bounded-staleness asynchronous execution."""

    name = "ssp"
    precision = 20
    synchronous = False
    config_schema = {
        **_SCHEMA,
        "staleness_bound": f"iteration spread bound (default: "
        f"{DEFAULT_STALENESS_BOUND})",
    }

    def run(
        self,
        session: TrainingSession,
        steps: int,
        options: dict | None = None,
        stop: StopCondition | None = None,
    ) -> str:
        bound = (options or {}).get("staleness_bound", DEFAULT_STALENESS_BOUND)
        return run_push_loop(session, steps, options, stop, int(bound))


class DSSPEngine:
    """SSP with a dynamically adapted staleness bound."""

    name = "dssp"
    precision = 30
    synchronous = False
    config_schema = {
        **_SCHEMA,
        "lower_bound": f"smallest adaptive staleness bound (default: "
        f"{DEFAULT_LOWER_BOUND})",
        "upper_bound": f"largest adaptive staleness bound (default: "
        f"{DEFAULT_UPPER_BOUND})",
        "adapt_every": f"pushes between bound adaptations (default: "
        f"{DEFAULT_ADAPT_EVERY})",
    }

    def run(
        self,
        session: TrainingSession,
        steps: int,
        options: dict | None = None,
        stop: StopCondition | None = None,
    ) -> str:
        options = options or {}
        lower = int(options.get("lower_bound", DEFAULT_LOWER_BOUND))
        upper = int(options.get("upper_bound", DEFAULT_UPPER_BOUND))
        adapt_every = int(options.get("adapt_every", DEFAULT_ADAPT_EVERY))
        # Blocking signal: fraction of pushes with near-maximal staleness.
        signal = session.telemetry.staleness_high_fraction

        bound = lower
        remaining = steps
        while remaining > 0:
            chunk = min(adapt_every, remaining)
            before_block = signal(session.cluster.n_active)
            reason = run_push_loop(session, chunk, options, stop, bound)
            remaining -= chunk
            if reason != "completed":
                return reason
            # Heuristic adaptation: realized staleness pressing against
            # the current bound means workers were held back -> relax;
            # staleness well under the bound -> tighten.
            pressure = signal(session.cluster.n_active) - before_block
            if pressure > 0.5 and bound < upper:
                bound += 1
            elif pressure < 0.1 and bound > lower:
                bound -= 1
        return "completed"
