"""The barrier round: Bulk Synchronous Parallel and its periodic form.

BSP semantics (paper Fig. 3a): every round, each active worker computes
one mini-batch gradient on the *same* parameter version; the PS waits
at a barrier until all gradients arrive, aggregates them, and applies
one update.  The configuration policy makes the global batch ``n*B``
and the learning rate ``n*eta`` (linear scaling rule, Section IV-C).

OSP (PAPERS.md: arXiv 2306.16926) splits synchronization into two
stages: workers run ``sync_period`` *local* mini-batch rounds,
accumulating gradients against the parameter version they last pulled,
then meet at one global barrier where the accumulated gradient is
aggregated and applied.  The barrier — and its fixed synchronization
overhead — is paid once per ``sync_period`` local rounds, trading
gradient freshness *within* a super-round for throughput while the
update itself stays fully synchronous (staleness 0 at every push).

BSP *is* OSP at ``sync_period`` 1, so there is one loop,
:func:`run_barrier_rounds`, and the two registry classes differ in the
super-round length they pass it.  Two notes on fidelity:

* Numerically, a super-round is one aggregated update over the
  ``n_active * local_rounds`` mini-batches drawn at the shared
  parameter version: the mean of per-worker (accumulated)
  mean-gradients equals the gradient of the concatenated batch, so the
  loop evaluates one big-batch gradient — bit-identical to aggregating
  the small ones but much faster on BLAS.
* Timing-wise, each worker's super-round duration is the sum of its
  per-batch durations (each drawn from the worker's jitter stream,
  straggler state included) and the round lasts
  ``max_i(duration_i) + sync_overhead(n)`` — the barrier semantics
  that make BSP straggler-sensitive.

One super-round advances the global step counter by
``n_active * local_rounds`` (each worker's mini-batches of progress),
matching the paper's step-count bookkeeping in Figs. 11-13, so step
budgets and learning-rate decay line up across engines.
"""

from __future__ import annotations

from repro.distsim.engines.base import StopCondition, TrainingSession

__all__ = ["BSPEngine", "OSPEngine"]

#: Local accumulation rounds between global barriers.
DEFAULT_SYNC_PERIOD = 4

_SCHEMA = {
    "batch_size": "per-worker mini-batch size (default: job batch size)",
    "lr_multiplier": "learning-rate scale (default: n_active, linear rule)",
}


def run_barrier_rounds(
    session: TrainingSession,
    steps: int,
    options: dict | None,
    stop: StopCondition | None,
    sync_period: int,
) -> str:
    """Barrier super-rounds of ``sync_period`` local rounds each."""
    options = options or {}
    batch_size = int(options.get("batch_size", session.job.batch_size))
    target = session.step + steps
    while session.step < target:
        workers = session.cluster.active_workers
        n_active = len(workers)
        lr_multiplier = float(options.get("lr_multiplier", n_active))
        # Trim the final super-round so the budget is not overshot by a
        # whole sync_period (a run may overshoot by at most one round's
        # worth of progress).
        remaining_rounds = -(-(target - session.step) // n_active)
        local_rounds = min(sync_period, remaining_rounds)

        # Timing half: each worker runs local_rounds back-to-back
        # batches (one jitter draw per batch, under its current
        # straggler state — batched: one schedule query per round),
        # then the single barrier waits for the slowest.
        now = session.clock.now
        durations = []
        straggler_states = session.stragglers.states_at(workers, now)
        for worker, (slow, latency) in zip(workers, straggler_states):
            duration = 0.0
            for _ in range(local_rounds):
                duration += session.timing.compute_time(
                    batch_size, session.time_noise(worker), slow, latency
                )
            durations.append(duration)
            session.telemetry.record_worker_duration(now, worker, duration)
        round_time = session.timing.bsp_round_time(durations, n_active)

        # Numeric half: one aggregated update over the accumulated
        # global batch (all mini-batches share the pulled version).
        inputs, labels = session.global_batch(
            workers, local_rounds * batch_size
        )
        loss, grad = session.model.loss_and_grad(
            session.ps.peek(), inputs, labels, grad_out=session.grad_buffer()
        )
        lr = session.base_lr_now() * lr_multiplier
        session.ps.push(grad, lr, momentum=session.job.momentum)
        session.telemetry.record_staleness(0)

        session.clock.advance(round_time)
        progress = n_active * local_rounds
        session.step += progress
        session.telemetry.images_processed += progress * batch_size
        session.after_update(loss)

        if stop is not None:
            reason = stop(session)
            if reason:
                return reason
    return "completed"


class BSPEngine:
    """Synchronous rounds with barrier timing and one global update."""

    name = "bsp"
    #: Registry metadata (see ``repro.distsim.engines``): precision is
    #: the staleness-ordering rank — lower trains more precisely.
    precision = 0
    synchronous = True
    config_schema = _SCHEMA

    def run(
        self,
        session: TrainingSession,
        steps: int,
        options: dict | None = None,
        stop: StopCondition | None = None,
    ) -> str:
        return run_barrier_rounds(session, steps, options, stop, 1)


class OSPEngine:
    """Local accumulation rounds with a periodic global barrier."""

    name = "osp"
    precision = 10
    synchronous = True
    config_schema = {
        **_SCHEMA,
        "sync_period": f"local rounds per global sync (default: "
        f"{DEFAULT_SYNC_PERIOD})",
    }

    def run(
        self,
        session: TrainingSession,
        steps: int,
        options: dict | None = None,
        stop: StopCondition | None = None,
    ) -> str:
        period = (options or {}).get("sync_period", DEFAULT_SYNC_PERIOD)
        return run_barrier_rounds(session, steps, options, stop, int(period))
