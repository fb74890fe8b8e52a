"""Tests for TrainingSession bookkeeping (shared engine state)."""

import numpy as np
import pytest

from repro.core.policies import PolicyManager, ProtocolSchedule, TimingPolicy
from repro.core.runtime import ElasticTrainingRun
from repro.distsim.cluster import Cluster, ClusterSpec
from repro.distsim.engines import ASPEngine, BSPEngine
from repro.distsim.engines.base import TrainingSession
from repro.distsim.job import JobConfig
from repro.distsim.timing import timing_for
from repro.mlcore.datasets import make_dataset
from repro.mlcore.models import make_model
from repro.mlcore.optim import LinearRampMomentum


def make_job(total_steps=400, eval_every=100, seed=0):
    return JobConfig(
        model="resnet32-sim",
        dataset="cifar10-sim",
        total_steps=total_steps,
        base_lr=0.004,
        eval_every=eval_every,
        loss_log_every=50,
        seed=seed,
    )


def make_session(n_workers=4, total_steps=400, eval_every=100, seed=0):
    job = make_job(total_steps, eval_every, seed)
    return TrainingSession(
        job=job,
        model=make_model("resnet32-sim"),
        dataset=make_dataset("cifar10-sim"),
        timing=timing_for("resnet32-sim"),
        cluster=Cluster(ClusterSpec(n_workers=n_workers)),
    )


class TestHyperParameterResolution:
    def test_fraction_tracks_progress(self):
        session = make_session(total_steps=400)
        assert session.fraction == 0.0
        session.step = 200
        assert session.fraction == pytest.approx(0.5)
        session.step = 800
        assert session.fraction == 1.0  # clipped

    def test_base_lr_follows_decay_schedule(self):
        session = make_session(total_steps=400)
        lr_start = session.base_lr_now()
        session.step = 200
        assert session.base_lr_now() == pytest.approx(0.1 * lr_start)
        session.step = 300
        assert session.base_lr_now() == pytest.approx(0.01 * lr_start)

    def test_momentum_without_schedule_is_job_momentum(self):
        session = make_session()
        assert session.momentum_now() == 0.9

    def test_momentum_ramp_counts_epochs_after_switch(self):
        session = make_session()
        session.step = 100
        session.note_async_phase(
            LinearRampMomentum(momentum=0.9, n_workers=4)
        )
        assert session.momentum_now() == 0.0  # zero epochs elapsed
        train_size = len(session.dataset.y_train)
        # advance exactly 2 epochs worth of steps
        session.step = 100 + 2 * train_size // session.job.batch_size
        assert session.momentum_now() == pytest.approx(0.5, abs=0.01)

    def test_async_switch_step_fixed_at_first_async_phase(self):
        session = make_session()
        session.step = 50
        session.note_async_phase(None)
        session.step = 90
        session.note_async_phase(None)
        assert session.async_switch_step == 50


class TestDataAccess:
    def test_worker_batches_come_from_disjoint_shards(self):
        session = make_session(n_workers=4)
        lo0, hi0 = session.dataset.shard_range(0, 4)
        x0, _ = session.worker_batch(0, 16)
        pool = session.dataset.x_train[lo0:hi0]
        for row in x0[:4]:
            assert (np.abs(pool - row).sum(axis=1) < 1e-12).any()

    def test_global_batch_concatenates_workers(self):
        session = make_session(n_workers=4)
        inputs, labels = session.global_batch((0, 1, 2, 3), 32)
        assert inputs.shape == (128, session.dataset.input_dim)
        assert labels.shape == (128,)

    def test_data_streams_differ_per_worker(self):
        session = make_session(n_workers=2)
        x0, _ = session.worker_batch(0, 8)
        x1, _ = session.worker_batch(1, 8)
        assert not np.array_equal(x0, x1)


class TestLoggingCadence:
    def test_eval_cadence_respected(self):
        session = make_session(total_steps=400, eval_every=100)
        BSPEngine().run(session, steps=400)
        eval_steps = [step for step, _, _ in session.telemetry.eval_log]
        assert len(eval_steps) >= 4
        gaps = [b - a for a, b in zip(eval_steps, eval_steps[1:])]
        assert all(gap >= 99 for gap in gaps)

    def test_loss_log_cadence(self):
        session = make_session(total_steps=400)
        ASPEngine().run(session, steps=200)
        loss_steps = [step for step, _, _ in session.telemetry.loss_log]
        gaps = [b - a for a, b in zip(loss_steps, loss_steps[1:])]
        assert all(gap >= 50 for gap in gaps)

    def test_evaluate_now_records_tracker(self):
        session = make_session()
        accuracy = session.evaluate_now()
        assert 0.0 <= accuracy <= 1.0
        assert session.tracker.final_accuracy == pytest.approx(accuracy)


class TestFork:
    """Session state copies with the run that owns it
    (``ElasticTrainingRun.fork``, the one copy mechanism): the copy
    continues bit-identically and independently."""

    @staticmethod
    def owned_session():
        """A session and the (never advanced) run that owns it."""
        run = ElasticTrainingRun(
            job=make_job(),
            cluster_spec=ClusterSpec(n_workers=4),
            policies=PolicyManager(
                timing=TimingPolicy(0.0),
                protocol=ProtocolSchedule(("bsp", "asp")),
            ),
        )
        return run, run.session

    def test_fork_continues_bit_identically(self):
        run, session = self.owned_session()
        ASPEngine().run(session, steps=30)
        clone = run.fork().session
        ASPEngine().run(session, steps=30)
        ASPEngine().run(clone, steps=30)
        assert np.array_equal(session.ps.peek(), clone.ps.peek())
        assert session.clock.now == clone.clock.now
        assert session.step == clone.step
        assert list(session.telemetry.loss_log) == list(
            clone.telemetry.loss_log
        )

    def test_fork_shares_substrate_and_copies_mutable_state(self):
        run, session = self.owned_session()
        ASPEngine().run(session, steps=10)
        clone = run.fork().session
        assert clone.dataset is session.dataset
        assert clone.model is session.model
        assert clone.timing is session.timing
        assert clone.stragglers is session.stragglers
        assert clone.ps is not session.ps
        assert clone.clock is not session.clock
        assert clone.cluster is not session.cluster

    def test_fork_is_independent(self):
        run, session = self.owned_session()
        ASPEngine().run(session, steps=10)
        clone = run.fork().session
        before = session.ps.peek().copy()
        ASPEngine().run(clone, steps=40)
        assert np.array_equal(session.ps.peek(), before)
        assert session.step == 10
