"""Unit tests for the zero-copy kernel primitives (PR 4).

Each primitive claims bit-identity with the naive implementation it
replaced; these tests check exactly that, plus the bookkeeping
(rollback, pooling, caching) that keeps the claims true under
eviction, segment boundaries and buffer reuse.
"""

import multiprocessing
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.distsim.engines.base as session_module
from repro.distsim.cluster import Cluster, ClusterSpec
from repro.distsim.engines import ASPEngine, SSPEngine
from repro.distsim.engines.base import GradientBatcher, TrainingSession
from repro.distsim.job import JobConfig
from repro.distsim.stragglers import StragglerEvent, StragglerSchedule
from repro.distsim.telemetry import TrainingTelemetry, TypedLog
from repro.distsim.timing import ChunkedLognormalNoise, timing_for
from repro.mlcore import scratch
from repro.mlcore.datasets import ShardIndexStream, make_dataset
from repro.mlcore.models import make_model
from repro.mlcore.optim import MomentumSGD

# The textbook kernel lives beside the mlcore tests (tests/ has no
# packages; a test directory is importable once it is on the path).
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "mlcore"))
import reference_model  # noqa: E402


def make_session(
    n_workers=4, total_steps=400, seed=0, batch_size=32, base_lr=0.004
):
    job = JobConfig(
        model="resnet32-sim",
        dataset="cifar10-sim",
        total_steps=total_steps,
        batch_size=batch_size,
        base_lr=base_lr,
        eval_every=200,
        loss_log_every=100,
        seed=seed,
    )
    return TrainingSession(
        job=job,
        model=make_model("resnet32-sim"),
        dataset=make_dataset("cifar10-sim"),
        timing=timing_for("resnet32-sim"),
        cluster=Cluster(ClusterSpec(n_workers=n_workers)),
    )


class TestChunkedLognormalNoise:
    def test_bit_identical_to_scalar_draws(self):
        scalar_rng = np.random.default_rng(5)
        chunked = ChunkedLognormalNoise(
            np.random.default_rng(5), sigma=0.08, chunk=16
        )
        for _ in range(100):
            assert chunked.next_jitter() == float(
                scalar_rng.lognormal(0.0, 0.08)
            )

    def test_rejects_bad_chunk(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ChunkedLognormalNoise(np.random.default_rng(0), 0.1, chunk=0)


class TestShardIndexStream:
    def test_bit_identical_to_per_batch_draws(self):
        reference = np.random.default_rng(3)
        stream = ShardIndexStream(
            np.random.default_rng(3), 100, 2600, chunk=64
        )
        for size in (16, 16, 128, 7, 64, 33):
            expected = reference.integers(100, 2600, size=size)
            assert np.array_equal(stream.draw(size), expected)

    def test_snapshot_restore_rewinds_exactly(self):
        reference = np.random.default_rng(9)
        stream = ShardIndexStream(np.random.default_rng(9), 0, 1000, chunk=32)
        stream.draw(20)
        reference.integers(0, 1000, size=20)
        mark = stream.snapshot()
        undone = stream.draw(50).copy()  # crosses a refill
        stream.restore(mark)
        # The rewound stream replays the same values...
        assert np.array_equal(stream.draw(50), undone)
        # ...and stays aligned with the never-rewound reference.
        reference.integers(0, 1000, size=50)
        assert np.array_equal(
            stream.draw(10), reference.integers(0, 1000, size=10)
        )


class TestStatesAt:
    def test_matches_per_worker_state_at(self):
        rng = np.random.default_rng(0)
        schedule = StragglerSchedule()
        for _ in range(40):
            schedule.add(
                StragglerEvent(
                    worker=int(rng.integers(0, 6)),
                    start=float(rng.uniform(0, 50)),
                    duration=float(rng.uniform(0.5, 15)),
                    slow_factor=float(rng.uniform(1.0, 4.0)),
                    extra_latency=float(rng.uniform(0, 0.01)),
                )
            )
        workers = tuple(range(8))
        for time in np.linspace(-1.0, 70.0, 141):
            reference = StragglerSchedule(list(schedule.events))
            expected = [reference.state_at(w, float(time)) for w in workers]
            assert schedule.states_at(workers, float(time)) == expected

    def test_window_memo_survives_backward_queries(self):
        schedule = StragglerSchedule(
            [StragglerEvent(worker=0, start=10.0, duration=5.0, slow_factor=2.0)]
        )
        assert schedule.state_at(0, 12.0) == (2.0, 0.0)
        assert schedule.state_at(0, 3.0) == (1.0, 0.0)  # before the window
        assert schedule.state_at(0, 14.9) == (2.0, 0.0)
        assert schedule.state_at(0, 15.0) == (1.0, 0.0)  # end is exclusive


class TestTypedLog:
    def test_grows_past_initial_capacity(self):
        log = TypedLog(np.int64, np.float64, np.float64)
        for index in range(500):
            log.append(index, index * 0.5, -index * 1.5)
        assert len(log) == 500
        assert log[499] == (499, 249.5, -748.5)
        assert log[-1] == log[499]
        assert log[0] == (0, 0.0, 0.0)

    def test_rows_are_python_scalars(self):
        log = TypedLog(np.float64, np.int64, np.float64)
        log.append(1.5, 3, 0.25)
        time, worker, duration = log[0]
        assert isinstance(worker, int)
        assert isinstance(time, float)

    def test_equality_slicing_iteration(self):
        log = TypedLog(np.int64, np.float64, np.float64)
        rows = [(1, 2.0, 3.0), (4, 5.0, 6.0), (7, 8.0, 9.0)]
        for row in rows:
            log.append(*row)
        assert log == rows
        assert list(log) == rows
        assert log[1:] == rows[1:]
        assert log.column(0).tolist() == [1, 4, 7]

    def test_staleness_histogram(self):
        telemetry = TrainingTelemetry()
        for value in (0, 0, 3, 200, 3):
            telemetry.record_staleness(value)
        assert telemetry.staleness_counts == {0: 2, 3: 2, 200: 1}
        assert telemetry.staleness_high_fraction(3) == pytest.approx(3 / 5)
        assert telemetry.staleness_high_fraction(1000) == 0.0
        summary = telemetry.staleness_summary()
        assert summary["max"] == 200.0


class TestMomentumAdvance:
    def test_advance_matches_naive_step(self):
        rng = np.random.default_rng(1)
        fused = MomentumSGD(64, momentum=0.9, dtype=np.float64)
        params_fused = rng.normal(size=64)
        params_naive = params_fused.copy()
        velocity = np.zeros(64)
        for _ in range(5):
            grad = rng.normal(size=64)
            fused.step(params_fused, grad, lr=0.05)
            velocity *= 0.9
            velocity -= 0.05 * grad
            params_naive += velocity
        assert np.array_equal(params_fused, params_naive)
        assert np.array_equal(fused.velocity, velocity)


class TestBatchedLossAndGrad:
    def test_bitwise_equal_to_single_evaluations(self):
        """Metamorphic: one width-5 pass equals five width-1 passes —
        and both equal the textbook kernel, so they are not merely
        wrong in the same way (they are one pass now)."""
        model = make_model("resnet32-sim")
        rng = np.random.default_rng(0)
        k, batch = 5, 16
        stack = np.stack([model.init_params(seed) for seed in range(k)])
        inputs = rng.normal(size=(k, batch, 24)).astype(np.float32)
        labels = rng.integers(0, 10, size=(k, batch))
        losses, grads = model.loss_and_grad_batch(stack, inputs, labels)
        for index in range(k):
            loss, grad = model.loss_and_grad(
                stack[index].copy(), inputs[index], labels[index]
            )
            assert loss == losses[index]
            assert np.array_equal(grad, grads[index])
            expected_loss, expected = reference_model.loss_and_grad(
                model.config, stack[index], inputs[index], labels[index]
            )
            assert loss == expected_loss
            assert np.array_equal(grad, expected)

    def test_grad_out_reuse_is_identical(self):
        model = make_model("resnet32-sim")
        rng = np.random.default_rng(2)
        params = model.init_params(0)
        inputs = rng.normal(size=(8, 24)).astype(np.float32)
        labels = rng.integers(0, 10, size=8)
        loss_fresh, grad_fresh = model.loss_and_grad(params, inputs, labels)
        buffer = np.full(model.layout.size, 7.25, dtype=np.float32)
        loss_reused, grad_reused = model.loss_and_grad(
            params, inputs, labels, grad_out=buffer
        )
        assert grad_reused is buffer
        assert loss_fresh == loss_reused
        assert np.array_equal(grad_fresh, grad_reused)

    def test_views_cache_distinguishes_rows_of_one_base(self):
        """The ``(data pointer, K)`` cache at ``K = 1``: two rows of one
        base are two entries, and a new ``[None]`` view of a row hits
        the entry of its pointer."""
        model = make_model("resnet32-sim")
        rng = np.random.default_rng(4)
        stack = np.stack([model.init_params(seed) for seed in range(2)])
        inputs = rng.normal(size=(4, 24)).astype(np.float32)
        labels = rng.integers(0, 10, size=4)
        loss_a, _ = model.loss_and_grad(stack[0], inputs, labels)
        loss_b, _ = model.loss_and_grad(stack[1], inputs, labels)
        assert loss_a != loss_b  # different parameters, not cached views
        pointers = {
            row.__array_interface__["data"][0] for row in (stack[0], stack[1])
        }
        assert {(pointer, 1) for pointer in pointers} == set(
            model._stacked_cache
        )
        assert model.loss_and_grad(stack[0], inputs, labels)[0] == loss_a
        assert len(model._stacked_cache) == 2


def _stack_inputs(model, k, dtype, batch=8):
    """Deterministic ``(params, inputs, labels)`` stacks of width ``k``."""
    rng = np.random.default_rng(k)
    stack = np.stack(
        [model.init_params(seed, dtype=dtype) for seed in range(k)]
    )
    config = model.config
    inputs = rng.normal(size=(k, batch, config.input_dim)).astype(np.float32)
    labels = rng.integers(0, config.n_classes, size=(k, batch))
    return stack, inputs, labels


@contextmanager
def installed_scratch(arena=None, lender=None):
    """Run the body on its own arena and lender (default: fresh ones)."""
    arena, lender = arena or scratch.Arena(), lender or scratch.StackLender()
    with mock.patch.multiple(scratch, ARENA=arena, STACKS=lender):
        yield arena, lender


def _windows(views):
    """Every arena window of a view set, flattened (a forward-only set
    leaves most slots unset)."""
    found = []
    for name in scratch.PassViews.__slots__:
        value = getattr(views, name, None)
        if value is not None and name not in ("rows", "slices"):
            found.extend(value if isinstance(value, list) else [value])
    return found


class TestCapacityWorkspace:
    """One process-wide arena serves every stack width."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(
        widths=st.lists(
            st.integers(min_value=1, max_value=8), min_size=1, max_size=5
        )
    )
    @example(widths=[8, 3, 8])
    @example(widths=[1, 2, 8])  # growth replaces the arena twice
    @settings(max_examples=15, deadline=None)
    def test_any_width_sequence_equals_a_fresh_model(self, dtype, widths):
        """float64 parameters on float32 inputs is the mixed-precision
        path (allocate-then-cast bias sums, float64 windows).  A fresh
        model no longer means fresh scratch, so the reference runs on a
        fresh *arena*."""
        with installed_scratch() as (arena, _):
            served = make_model("resnet32-sim")
            for k in widths:
                stack, inputs, labels = _stack_inputs(served, k, dtype)
                losses, grads = served.loss_and_grad_batch(
                    stack, inputs, labels
                )
                with installed_scratch():
                    fresh = make_model("resnet32-sim")
                    expected_losses, expected = fresh.loss_and_grad_batch(
                        stack.copy(), inputs.copy(), labels.copy()
                    )
                assert losses == expected_losses
                assert grads.tobytes() == expected.tobytes()
            # One block, exactly as large as the widest call needs.
            with installed_scratch() as (widest, _):
                fresh.loss_and_grad_batch(
                    *_stack_inputs(fresh, max(widths), dtype)
                )
            assert arena._bytes.nbytes == widest._bytes.nbytes

    def test_prefix_views_are_contiguous_windows_of_one_buffer(self):
        """Window geometry: what a pass gets from the arena looks, to
        numpy and BLAS, exactly like dedicated allocations."""
        with installed_scratch() as (arena, _):
            model = make_model("resnet32-sim")
            stack, inputs, labels = _stack_inputs(model, 8, np.float32)
            model.loss_and_grad_batch(stack, inputs, labels)
            block = arena._bytes
            narrow = model._scratch(3, 8, inputs[:3], stack[:3])
            assert arena._bytes is block  # a narrower pass fits: no growth
            windows = _windows(narrow)
            assert narrow.dh.shape == (3, 8, 64) and narrow.mask.dtype == bool
            # Weight decay runs per matrix through one window as wide
            # as the largest matrix (a block's 64 x 64), not the whole
            # parameter vector.
            assert narrow.decay.shape == (3, 64 * 64)
            spans = []
            for window in windows:
                assert window.base is block and window.flags.c_contiguous
                dedicated = np.empty(window.shape, dtype=window.dtype)
                assert window.strides == dedicated.strides
                address = window.__array_interface__["data"][0]
                assert address % 64 == 0
                spans.append((address, address + window.nbytes))
            spans.sort()
            assert all(
                end <= start for (_, end), (start, _) in zip(spans, spans[1:])
            )
            # A stacked (K, b, H) window and the K = 1 window of K*b
            # rows — what a barrier round of that global batch gets —
            # are the same flat rows of the same bytes.
            flat = model._scratch(1, 24, inputs[0], stack[0])
            assert [w.__array_interface__["data"][0] for w in windows] == [
                w.__array_interface__["data"][0] for w in _windows(flat)
            ]
            assert flat.dh.shape == (1, 24, 64)
            assert flat.dh[0].strides == np.empty((24, 64), np.float32).strides
            assert flat.dh.nbytes == narrow.dh.nbytes
            assert model._scratch(3, 8, inputs[:3], stack[:3]) is narrow

    def test_growth_mid_sequence_and_a_bounded_view_set_cache(self):
        """Small pass, large pass (the arena is replaced under the
        cached view sets), small pass again; then more distinct batch
        sizes than the view-set cache holds."""
        model = make_model("resnet32-sim")
        params = model.init_params(0)
        rng = np.random.default_rng(7)
        sizes = [4, 512, 4] + [int(n) for n in rng.integers(1, 200, size=90)]
        batches = [
            (
                rng.normal(size=(n, 24)).astype(np.float32),
                rng.integers(0, 10, size=n),
            )
            for n in sizes
        ]
        with installed_scratch() as (arena, _):
            served = []
            for position, (inputs, labels) in enumerate(batches):
                served.append(model.loss_and_grad(params, inputs, labels))
                if position == 0:
                    small = arena._bytes
                elif position == 1:
                    assert arena._bytes is not small  # grown by replacement
                    large = arena._bytes
            assert arena._bytes is large  # nothing after it was larger
            assert len(set(sizes)) > scratch.Arena.MAX_VIEW_SETS
            assert len(arena._view_sets) == scratch.Arena.MAX_VIEW_SETS
        for (inputs, labels), (loss, grad) in zip(batches, served):
            with installed_scratch():
                expected_loss, expected = model.loss_and_grad(
                    params, inputs, labels
                )
            assert loss == expected_loss
            assert grad.tobytes() == expected.tobytes()

    def test_stacked_view_cache_keys_on_pointer_and_width(self):
        """Two prefix widths of one staging buffer never share cached
        views — even when the first view object was collected and its
        ``id`` came back on the second (the cached views pin the
        buffer, not the view object)."""
        model = make_model("resnet32-sim")
        stage = np.zeros((8, model.layout.size), dtype=np.float32)
        first = stage[:5]
        first_id = id(first)
        wide = model._stacked_views(first, cacheable=True)
        del first
        # CPython hands the freed object's address to the next ndarray
        # (first try in practice); hold the misses so it has to.
        misses = []
        for _ in range(64):
            second = stage[:3]
            if id(second) == first_id:
                break
            misses.append(second)
        narrow = model._stacked_views(second, cacheable=True)
        assert wide[0][0].shape[0] == 5 and narrow[0][0].shape[0] == 3
        # Same pointer and width: served from the cache, whatever view
        # object carries them; another pointer is another entry.
        assert model._stacked_views(stage[:5], cacheable=True) is wide
        assert model._stacked_views(stage[:3], cacheable=True) is narrow
        assert model._stacked_views(stage[1:4], cacheable=True) is not narrow
        # A strided window with a cached pointer and width is not a
        # prefix: it is built fresh and never cached.
        strided = model._stacked_views(stage[::2][:3], cacheable=True)
        assert strided is not narrow
        assert strided[0][0].strides[0] == 2 * stage.strides[0]

    @pytest.mark.parametrize(
        "name, data",
        [("resnet32-sim", "cifar10-sim"), ("resnet50-sim", "cifar100-sim")],
    )
    def test_a_full_evaluation_fits_in_the_widest_gradient_pass(
        self, name, data
    ):
        """A run's widest gradient pass — eight workers' 128-row
        batches, stacked — sizes the arena; a 2 000-row evaluation
        then runs on its forward-only windows inside those bytes."""
        with installed_scratch() as (arena, _):
            model = make_model(name)
            stack, inputs, labels = _stack_inputs(model, 8, np.float32, 128)
            model.loss_and_grad_batch(stack, inputs, labels)
            block = arena._bytes
            dataset = make_dataset(data)
            assert len(dataset.x_test) == 2000
            model.evaluate(stack[0], dataset.x_test, dataset.y_test)
            assert arena._bytes is block

    def test_forward_only_views_are_three_hidden_windows_and_logits(self):
        model = make_model("resnet50-sim")  # four blocks, five h[]
        stack, inputs, _ = _stack_inputs(model, 1, np.float32, 2000)
        with installed_scratch():
            views = model._scratch(1, 2000, inputs, stack, forward_only=True)
        windows = {
            window.__array_interface__["data"][0]: window.shape
            for window in _windows(views)
        }
        assert sorted(windows.values()) == [(1, 2000, 80)] * 3 + [
            (1, 2000, 100)
        ]
        # Three distinct windows: each block reads h[i] while it
        # writes h[i + 1] and u.
        assert all(
            views.h[i] is views.h[i % 2] for i in range(len(views.h))
        )

    def test_a_forked_child_writes_its_own_copy_of_the_arena(self):
        """The arena is a private mapping: a pool worker forked after
        the parent ran a pass writes its own copy on write.  A shared
        mapping would hand the child's activations to the parent."""
        model = make_model("resnet32-sim")
        stack, inputs, labels = _stack_inputs(model, 2, np.float32)
        with installed_scratch() as (arena, _):
            model.loss_and_grad_batch(stack, inputs, labels)
            before = arena._bytes.tobytes()
            child = multiprocessing.get_context("fork").Process(
                target=_run_another_pass,
                args=(model, stack[::-1].copy(), inputs, labels, before),
            )
            child.start()
            child.join()
            assert child.exitcode == 0
            assert arena._bytes.tobytes() == before


def _run_another_pass(model, stack, inputs, labels, parent_bytes):
    """Child side of the fork test: a different pass of the same shape,
    written into the inherited arena (no replacement)."""
    block = scratch.ARENA._bytes
    model.loss_and_grad_batch(stack, inputs, labels)
    assert scratch.ARENA._bytes is block
    assert block.tobytes() != parent_bytes


class TestMaskFromPostActivation:
    """The backward takes its ReLU masks from the post-activation
    windows: ``max(z, 0) > 0`` must be ``z > 0`` for every float."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_positive_after_relu_iff_positive_before(self, dtype, data):
        special = np.array(
            [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf,
             np.finfo(dtype).smallest_subnormal,
             -np.finfo(dtype).smallest_subnormal],
            dtype=dtype,
        )
        drawn = data.draw(
            hnp.arrays(
                dtype,
                st.integers(0, 64),
                elements=st.floats(
                    width=np.dtype(dtype).itemsize * 8,
                    allow_nan=True,
                    allow_infinity=True,
                    allow_subnormal=True,
                ),
            )
        )
        z = np.concatenate([special, drawn])
        np.testing.assert_array_equal(
            np.greater(np.maximum(z, 0.0), 0), np.greater(z, 0)
        )


class _PoisonArena(scratch.Arena):
    """Every arena byte is 0xFF (NaN to a float) when a pass starts,
    forward-only view sets included."""

    def views(self, *request, **options):
        views = super().views(*request, **options)
        self._bytes.fill(0xFF)
        return views


class _PoisonLender(scratch.StackLender):
    """Every stack is 0xFF throughout when it is handed out."""

    def borrow(self, rows, width, dtype):
        stack = super().borrow(rows, width, dtype)
        stack.view(np.uint8).fill(0xFF)
        return stack


class TestPoisonedScratch:
    """Write-before-read is what makes shared scratch value-stable:
    nothing may depend on what the previous user left behind."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", ["resnet32-sim", "resnet50-sim"])
    def test_kernel_results_do_not_depend_on_scratch_contents(
        self, name, dtype
    ):
        def results():
            model = make_model(name)
            stack, inputs, labels = _stack_inputs(model, 3, dtype)
            single = model.loss_and_grad(stack[0], inputs[0], labels[0])
            reused = model.loss_and_grad(
                stack[1], inputs[1], labels[1],
                grad_out=np.full(model.layout.size, np.nan, dtype=dtype),
            )
            stacked = model.loss_and_grad_batch(stack, inputs, labels)
            wide = inputs.reshape(-1, inputs.shape[-1])
            return (
                single[0], single[1].tobytes(),
                reused[0], reused[1].tobytes(),
                stacked[0], stacked[1].tobytes(),
                model.evaluate(stack[2], wide, labels.reshape(-1)),
                model.logits(stack[2], wide).tobytes(),
            )

        with installed_scratch():
            clean = results()
        with installed_scratch(_PoisonArena(), _PoisonLender()):
            assert results() == clean
            assert results() == clean  # and on the warmed view sets

    @pytest.mark.parametrize("protocol", ["bsp", "asp", "ssp"])
    def test_engine_runs_do_not_depend_on_scratch_contents(self, protocol):
        from repro.distsim.engines import make_engine

        def trajectory():
            session = make_session(seed=5)
            engine = make_engine(protocol)
            engine.run(session, steps=40)
            engine.run(session, steps=40)  # re-borrows returned stacks
            return (
                session.ps.peek().tobytes(),
                list(session.telemetry.loss_log),
                list(session.telemetry.eval_log),
                session.clock.now,
            )

        with installed_scratch():
            clean = trajectory()
        with installed_scratch(_PoisonArena(), _PoisonLender()):
            assert trajectory() == clean


class _RecordingBatcher(GradientBatcher):
    """A batcher that stays reachable after the engine run."""

    instances: list = []

    def __init__(self, session, batch_size, compressor=None):
        super().__init__(session, batch_size, compressor)
        self.instances.append(self)
        self.widths: list[int] = []

    def _evaluate_pending(self, states):
        self.widths.append(sum(1 for w in states if w not in self._cache))
        super()._evaluate_pending(states)


class _RecordingLender(scratch.StackLender):
    """A lender that remembers what it lent and what came back."""

    def __init__(self):
        super().__init__()
        self.lent: list[np.ndarray] = []
        self.returned: list[np.ndarray] = []

    def borrow(self, rows, width, dtype):
        stack = super().borrow(rows, width, dtype)
        self.lent.append(stack)
        return stack

    def give_back(self, stack):
        self.returned.append(stack)
        super().give_back(stack)


class TestBoundedSegmentScratch:
    @pytest.mark.parametrize(
        "engine_class", [ASPEngine, SSPEngine], ids=["asp", "ssp"]
    )
    def test_sixteen_workers_with_evictions_hold_one_buffer_set(
        self, engine_class, monkeypatch
    ):
        monkeypatch.setattr(
            session_module, "GradientBatcher", _RecordingBatcher
        )
        monkeypatch.setattr(_RecordingBatcher, "instances", [])
        # 16-worker ASP diverges at the suite's learning rate (Fig. 13).
        session = make_session(n_workers=16, total_steps=4000, base_lr=0.0005)

        def evict_mid_segment(current):
            if current.step == 40:
                for worker in (15, 14, 13, 12, 11):
                    current.cluster.evict(worker)
            return None

        with installed_scratch(lender=_RecordingLender()) as (arena, lender):
            engine_class().run(session, steps=160, stop=evict_mid_segment)
            wide = session.model._scratch(
                16, 32, session.dataset.x_train, session.ps.params
            )
        [batcher] = _RecordingBatcher.instances
        # The segment really exercised many stack widths...
        assert batcher.widths[0] == 16 and len(set(batcher.widths)) >= 3
        # ...on one arena sized by the 16-wide pass and one pair of
        # batch stacks.  The staging stack was borrowed once, a gradient
        # stack per evaluation; all of it was 16 wide, came out of at
        # most 1 + 4 distinct stacks, and went back exactly once.
        assert wide.dh.base is arena._bytes and wide.dh.shape[0] == 16
        assert batcher._inputs.shape[0] == batcher._labels.shape[0] == 16
        assert len(lender.lent) == 1 + len(batcher.widths)
        assert all(
            stack.shape == (16, session.model.layout.size)
            for stack in lender.lent
        )
        assert 2 <= len({id(stack.base) for stack in lender.lent}) <= 1 + 4
        assert sorted(map(id, lender.returned)) == sorted(map(id, lender.lent))
        assert batcher._stage is None
        assert len(lender._free) == len({id(raw) for raw in lender._free}) <= 5
        # Every eager draw that was never applied — the evicted
        # workers' and the ones in flight at the segment end — was
        # rewound: each stream advanced by exactly one batch per update
        # its worker applied (no refill this early: offset = draws).
        assert batcher._cache == {}
        applied = [0] * 16
        for _, worker, _ in session.telemetry.worker_durations:
            applied[int(worker)] += 1
        assert sum(applied) == session.step == 160 and min(applied) > 0
        for worker in session.cluster.all_workers:
            position = session._index_streams[worker].snapshot()[1]
            assert position == 32 * applied[worker]


class TestGradientBatcherRollback:
    def test_unconsumed_draws_are_rewound(self):
        session = make_session()
        batcher = GradientBatcher(session, batch_size=32)
        marks = {
            worker: session._index_streams[worker].snapshot()
            for worker in session.cluster.all_workers
        }
        states = {}
        for worker in session.cluster.active_workers:
            params, version = session.ps.pull()
            states[worker] = type(
                "S", (), {"params": params, "pulled_version": version}
            )()
        batcher.gradient_for(0, states)  # evaluates all four eagerly
        batcher.rollback_unconsumed()
        # Workers 1..3 were never consumed: their streams must be back
        # at the pre-draw position; worker 0 was consumed (advanced).
        for worker in (1, 2, 3):
            restored = session._index_streams[worker].snapshot()
            assert restored[1] == marks[worker][1]
            assert restored[0] is marks[worker][0]
        assert session._index_streams[0].snapshot()[1] != marks[0][1]

    def test_segment_boundaries_release_in_flight_snapshots(self):
        """Multi-segment ASP must not accumulate parked PS buffers."""
        session = make_session(total_steps=4000)
        engine = ASPEngine()
        engine.run(session, steps=40)
        parked_after_first = len(session.ps._parked)
        for _ in range(8):
            engine.run(session, steps=40)
        # In-flight snapshots are released at each segment end, so the
        # parked set stays bounded by the in-flight count instead of
        # growing by ~n_workers per segment.
        assert len(session.ps._parked) <= parked_after_first + 1

    def test_asp_and_ssp_runs_equal_engine_semantics(self):
        """Batched ASP/SSP equal a fresh run of the same seed (sanity)."""
        first = make_session(seed=11)
        ASPEngine().run(first, steps=60)
        second = make_session(seed=11)
        ASPEngine().run(second, steps=60)
        assert np.array_equal(first.ps.peek(), second.ps.peek())
        ssp_a = make_session(seed=12)
        SSPEngine().run(ssp_a, steps=60)
        ssp_b = make_session(seed=12)
        SSPEngine().run(ssp_b, steps=60)
        assert np.array_equal(ssp_a.ps.peek(), ssp_b.ps.peek())
