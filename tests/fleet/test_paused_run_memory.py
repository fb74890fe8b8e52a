"""A kept paused run costs its state, not a set of kernel scratch.

Best-fit keeps every running job's paused
:class:`~repro.core.runtime.elastic.ElasticTrainingRun` alive until its
finish event.  Kernel workspaces and batcher stacks belong to the
process (:mod:`repro.mlcore.scratch`), so what each further live run
adds is parameters, optimizer slots, RNG chunks and telemetry — a few
MB, where per-model workspaces used to add ~21 MB.  numpy reports its
allocations to ``tracemalloc``, so the measurement is deterministic and
needs no subprocess.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

MB = 1 << 20


def owned_arrays(value):
    """Arrays that own their memory, reachable through plain containers
    (a cached *view* pins a buffer somebody else owns)."""
    if isinstance(value, np.ndarray):
        if value.base is None:
            yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from owned_arrays(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from owned_arrays(item)


def test_each_further_live_paused_run_adds_a_few_megabytes(paused_run):
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    try:
        kept, traced = [], []
        for seed in range(5):
            run = paused_run(1, seed)
            kept.append((run, run.project()))
            gc.collect()
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        if started_here:
            tracemalloc.stop()
    # The first run also pays for what the process shares (dataset,
    # arena, lendable stacks); every further one only for itself.  The
    # mean, because the lender may still top up to its five stacks
    # (0.9 MB each) during whichever later run first needs them.
    per_run = (traced[-1] - traced[0]) / (len(traced) - 1) / MB
    assert per_run < 4.0, [count / MB for count in traced]
    for run, projection in kept:
        assert projection.completed_steps == run.job.total_steps
        model = run.trainer.model
        oversized = [
            array.shape
            for array in owned_arrays(vars(model))
            if array.nbytes > model._bias_index.nbytes
        ]
        assert not oversized, oversized
