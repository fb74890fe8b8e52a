"""Unit tests for the zero-copy kernel primitives (PR 4).

Each primitive claims bit-identity with the naive implementation it
replaced; these tests check exactly that, plus the bookkeeping
(rollback, pooling, caching) that keeps the claims true under
eviction, segment boundaries and buffer reuse.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.distsim.engines.asp as asp_module
import repro.distsim.engines.ssp as ssp_module
from repro.distsim.cluster import Cluster, ClusterSpec
from repro.distsim.engines import ASPEngine, SSPEngine
from repro.distsim.engines.base import GradientBatcher, TrainingSession
from repro.distsim.job import JobConfig
from repro.distsim.stragglers import StragglerEvent, StragglerSchedule
from repro.distsim.telemetry import TrainingTelemetry, TypedLog
from repro.distsim.timing import ChunkedLognormalNoise, timing_for
from repro.mlcore.datasets import ShardIndexStream, make_dataset
from repro.mlcore.models import make_model
from repro.mlcore.optim import MomentumSGD


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
        model = make_model("resnet32-sim")
        rng = np.random.default_rng(4)
        stack = np.stack([model.init_params(seed) for seed in range(2)])
        inputs = rng.normal(size=(4, 24)).astype(np.float32)
        labels = rng.integers(0, 10, size=4)
        loss_a, _ = model.loss_and_grad(stack[0], inputs, labels)
        loss_b, _ = model.loss_and_grad(stack[1], inputs, labels)
        assert loss_a != loss_b  # different parameters, not cached views


def _stack_inputs(model, k, dtype, batch=8):
    """Deterministic ``(params, inputs, labels)`` stacks of width ``k``."""
    rng = np.random.default_rng(k)
    stack = np.stack(
        [model.init_params(seed, dtype=dtype) for seed in range(k)]
    )
    inputs = rng.normal(size=(k, batch, 24)).astype(np.float32)
    labels = rng.integers(0, 10, size=(k, batch))
    return stack, inputs, labels


class TestCapacityWorkspace:
    """One capacity-sized scratch set serves every stack width."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(
        widths=st.lists(
            st.integers(min_value=1, max_value=8), min_size=1, max_size=5
        )
    )
    @example(widths=[8, 3, 8])
    @example(widths=[1, 2, 8])  # growth replaces the workspace twice
    @settings(max_examples=15, deadline=None)
    def test_any_width_sequence_equals_a_fresh_model(self, dtype, widths):
        """float64 parameters on float32 inputs is the mixed-precision
        path (allocate-then-cast bias sums, float64 workspace)."""
        served = make_model("resnet32-sim")
        for k in widths:
            stack, inputs, labels = _stack_inputs(served, k, dtype)
            losses, grads = served.loss_and_grad_batch(stack, inputs, labels)
            fresh = make_model("resnet32-sim")
            expected_losses, expected = fresh.loss_and_grad_batch(
                stack.copy(), inputs.copy(), labels.copy()
            )
            assert losses == expected_losses
            assert grads.tobytes() == expected.tobytes()
        # One workspace and one decay scratch, sized for the widest call.
        [workspace] = served._batch_workspaces.values()
        assert workspace.capacity == max(widths)
        [scratch] = served._batch_decay_scratch.values()
        assert scratch.shape[0] == max(widths)

    def test_prefix_views_are_contiguous_windows_of_one_buffer(self):
        model = make_model("resnet32-sim")
        stack, inputs, labels = _stack_inputs(model, 8, np.float32)
        model.loss_and_grad_batch(stack, inputs, labels)
        [workspace] = model._batch_workspaces.values()
        narrow = workspace.prefix(3)
        assert narrow.dh.shape[0] == 3 and narrow.dh.flags.c_contiguous
        assert narrow.dh.base is workspace.dh
        assert np.shares_memory(narrow.h[1], workspace.h[1])
        assert narrow.dh.strides == workspace.dh.strides
        assert workspace.prefix(8) is workspace

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


class _RecordingBatcher(GradientBatcher):
    """A batcher that stays reachable after the engine run."""

    instances: list = []

    def __init__(self, session, batch_size):
        super().__init__(session, batch_size)
        self.instances.append(self)
        self.widths: list[int] = []

    def _evaluate_pending(self, states):
        self.widths.append(sum(1 for w in states if w not in self._cache))
        super()._evaluate_pending(states)


class TestBoundedSegmentScratch:
    @pytest.mark.parametrize(
        "engine_module, engine_class",
        [(asp_module, ASPEngine), (ssp_module, SSPEngine)],
        ids=["asp", "ssp"],
    )
    def test_sixteen_workers_with_evictions_hold_one_buffer_set(
        self, engine_module, engine_class, monkeypatch
    ):
        monkeypatch.setattr(engine_module, "GradientBatcher", _RecordingBatcher)
        monkeypatch.setattr(_RecordingBatcher, "instances", [])
        # 16-worker ASP diverges at the suite's learning rate (Fig. 13).
        session = make_session(n_workers=16, total_steps=4000, base_lr=0.0005)

        def evict_mid_segment(current):
            if current.step == 40:
                for worker in (15, 14, 13, 12, 11):
                    current.cluster.evict(worker)
            return None

        engine_class().run(session, steps=160, stop=evict_mid_segment)
        [batcher] = _RecordingBatcher.instances
        # The segment really exercised many stack widths...
        assert batcher.widths[0] == 16 and len(set(batcher.widths)) >= 3
        # ...on one stacked workspace, one staging matrix, one pair of
        # batch stacks and a bounded gradient pool, all 16 wide.
        [workspace] = session.model._batch_workspaces.values()
        assert workspace.capacity == 16
        assert batcher._stage.shape == (16, session.model.layout.size)
        assert batcher._inputs.shape[0] == batcher._labels.shape[0] == 16
        assert 1 <= len(batcher._grad_pool) <= 4
        assert all(
            stack.shape == batcher._stage.shape for stack in batcher._grad_pool
        )
        [scratch] = session.model._batch_decay_scratch.values()
        assert scratch.shape[0] == 16
        # Every eager draw that was never applied — the evicted
        # workers' and the ones in flight at the segment end — was
        # rewound: each stream advanced by exactly one batch per update
        # its worker applied (no refill this early: offset = draws).
        assert batcher._cache == {}
        applied = [0] * 16
        for _, worker, _ in session.telemetry.worker_durations:
            applied[int(worker)] += 1
        # (SSP stalls on the evicted workers' frozen iteration counts
        # before the budget is spent; ASP applies all 160.)
        assert sum(applied) == session.step > 40 and min(applied) > 0
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
