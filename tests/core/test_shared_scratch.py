"""Runs that share the process's scratch never couple.

Kernel scratch and the batcher's stacks belong to the process
(:mod:`repro.mlcore.scratch`), so paused runs of different models and
worker counts take turns on the same bytes.  The oracle here is
independent of any hash: whatever order the runs are advanced in, and
whatever is projected from forks in between, every run finishes with
the :class:`TrainingResult` it produces when it has the process to
itself.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mlcore import scratch

#: resnet32-sim on 8 workers, resnet50-sim on 8, resnet32-sim on 16.
SETUP_INDICES = (1, 2, 3)


def alone(make_run, setup_index: int, slices: list[float]) -> dict:
    """The run advanced through ``slices`` on scratch nobody else uses."""
    with mock.patch.multiple(
        scratch, ARENA=scratch.Arena(), STACKS=scratch.StackLender()
    ):
        run = make_run(setup_index, seed=3)
        for seconds in slices:
            run.advance_to(run.now + seconds)
        run.run_to_completion()
        return run.result().to_dict()


@given(
    schedule=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.floats(min_value=0.2, max_value=6.0),
            st.booleans(),
        ),
        min_size=3,
        max_size=7,
    )
)
@settings(max_examples=4, deadline=None)
def test_interleaved_slices_equal_each_run_alone(paused_run, schedule):
    runs = [paused_run(index, seed=3) for index in SETUP_INDICES]
    slices: list[list[float]] = [[] for _ in runs]
    for which, seconds, project in schedule:
        run = runs[which]
        if run.finished:
            continue
        run.advance_to(run.now + seconds)
        slices[which].append(seconds)
        if project and not run.finished:
            run.fork().run_to_completion()
    for setup_index, run, taken in zip(SETUP_INDICES, runs, slices):
        expected = alone(paused_run, setup_index, taken)
        # fork().advance_to(t) == advance_to(t), on scratch the other
        # two runs (and this run's earlier projections) have used.
        projection = run.fork()
        projection.run_to_completion()
        run.run_to_completion()
        assert projection.result().to_dict() == expected
        assert run.result().to_dict() == expected
