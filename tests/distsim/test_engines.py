"""Tests for the BSP/ASP/SSP/DSSP execution engines."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distsim.cluster import Cluster, ClusterSpec
from repro.distsim.engines import ASPEngine, BSPEngine, SSPEngine, make_engine
from repro.distsim.engines.base import TrainingSession
from repro.distsim.job import JobConfig, TrainingPlan
from repro.distsim.stragglers import StragglerEvent, StragglerSchedule
from repro.distsim.timing import timing_for
from repro.distsim.trainer import DistributedTrainer
from repro.errors import ConfigurationError, DivergenceError
from repro.mlcore.datasets import make_dataset
from repro.mlcore.models import make_model
from repro.mlcore.optim import MomentumSGD, PiecewiseDecaySchedule, ZeroMomentum


def make_session(
    n_workers=4, total_steps=400, seed=0, stragglers=None, base_lr=0.004
) -> TrainingSession:
    job = JobConfig(
        model="resnet32-sim",
        dataset="cifar10-sim",
        total_steps=total_steps,
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
        stragglers=stragglers,
    )


def result_payload(protocol, seed, n_workers, steps, **options) -> str:
    """The full ``TrainingResult`` of a static ``protocol`` run as
    canonical JSON, protocol labels stripped."""
    job = JobConfig(
        model="resnet32-sim",
        dataset="cifar10-sim",
        total_steps=steps,
        batch_size=16,
        eval_every=40,
        loss_log_every=20,
        seed=seed,
    )
    trainer = DistributedTrainer(job, ClusterSpec(n_workers=n_workers))
    result = trainer.run(TrainingPlan.static(protocol, **options)).to_dict()
    assert result.pop("plan") == f"{protocol}:100%"
    for record in result["segment_summary"]:
        assert record.pop("protocol") == protocol
    return json.dumps(result, sort_keys=True)


#: Hypothesis axes of the degenerate-parameter relations below.
RUN = dict(
    seed=st.integers(0, 2**16),
    n_workers=st.integers(2, 8),
    steps=st.integers(8, 96),
)
relation = settings(max_examples=8, deadline=None)


def test_make_engine_registry():
    for protocol in ("bsp", "asp", "ssp", "dssp"):
        assert make_engine(protocol).name == protocol
    with pytest.raises(ConfigurationError):
        make_engine("allreduce")


class TestBSPEngine:
    def test_round_advances_n_steps_and_one_update(self):
        session = make_session(n_workers=4)
        BSPEngine().run(session, steps=4)
        assert session.step == 4
        assert session.ps.version == 1

    def test_completes_target(self):
        session = make_session(n_workers=4)
        reason = BSPEngine().run(session, steps=40)
        assert reason == "completed"
        assert session.step == 40
        assert session.ps.version == 10

    def test_round_time_at_least_sync_overhead(self):
        session = make_session(n_workers=4)
        BSPEngine().run(session, steps=4)
        assert session.clock.now >= session.timing.sync_overhead(4)

    def test_equivalent_to_serial_large_batch_sgd(self):
        """One BSP round == one big-batch momentum-SGD step (n*B, n*lr)."""
        session = make_session(n_workers=4, seed=3)
        initial = session.ps.peek().copy()
        # Replay reference: same batches in the same order.
        reference_session = make_session(n_workers=4, seed=3)
        inputs, labels = reference_session.global_batch((0, 1, 2, 3))
        model = reference_session.model
        expected = initial.copy()
        optimizer = MomentumSGD(model.n_parameters, 0.9, dtype=expected.dtype)
        schedule = PiecewiseDecaySchedule(reference_session.job.base_lr)
        _, grad = model.loss_and_grad(expected, inputs, labels)
        optimizer.step(expected, grad, schedule.lr_at(0.0) * 4)

        BSPEngine().run(session, steps=4)
        assert np.allclose(session.ps.peek(), expected)

    def test_staleness_is_zero(self):
        session = make_session()
        BSPEngine().run(session, steps=8)
        assert set(session.telemetry.staleness_counts) == {0}

    def test_respects_lr_multiplier_option(self):
        fast = make_session(seed=5)
        slow = make_session(seed=5)
        BSPEngine().run(fast, steps=4)  # default multiplier n=4
        BSPEngine().run(slow, steps=4, options={"lr_multiplier": 1.0})
        delta_fast = np.abs(fast.ps.peek() - make_session(seed=5).ps.peek()).sum()
        delta_slow = np.abs(slow.ps.peek() - make_session(seed=5).ps.peek()).sum()
        assert delta_fast > delta_slow

    def test_stop_condition_interrupts(self):
        session = make_session(n_workers=4)
        reason = BSPEngine().run(
            session, steps=400, stop=lambda s: "halt" if s.step >= 8 else None
        )
        assert reason == "halt"
        assert session.step == 8

    def test_straggler_stretches_round(self):
        quiet = make_session(n_workers=4, seed=1)
        BSPEngine().run(quiet, steps=20)
        slowed = make_session(
            n_workers=4,
            seed=1,
            stragglers=StragglerSchedule(
                [StragglerEvent(worker=0, start=0.0, duration=1e6,
                                extra_latency=0.030)]
            ),
        )
        BSPEngine().run(slowed, steps=20)
        assert slowed.clock.now > quiet.clock.now

    def test_divergence_raises(self):
        session = make_session()
        session.job = JobConfig(
            model="resnet32-sim",
            dataset="cifar10-sim",
            total_steps=400,
            divergence_threshold=0.001,  # everything "diverges"
            seed=0,
        )
        with pytest.raises(DivergenceError):
            BSPEngine().run(session, steps=8)
        assert session.diverged


class TestASPEngine:
    def test_each_push_is_one_step_one_update(self):
        session = make_session(n_workers=4)
        ASPEngine().run(session, steps=20)
        assert session.step == 20
        assert session.ps.version == 20

    def test_staleness_near_cluster_size(self):
        session = make_session(n_workers=4, total_steps=400)
        ASPEngine().run(session, steps=200)
        summary = session.telemetry.staleness_summary()
        assert 1.5 <= summary["mean"] <= 4.5  # ~ n-1 = 3
        assert summary["max"] >= 3

    def test_first_pushes_have_low_staleness(self):
        session = make_session(n_workers=4)
        ASPEngine().run(session, steps=4)
        assert max(session.telemetry.staleness_counts) <= 3

    def test_faster_than_bsp_per_step(self):
        bsp = make_session(n_workers=8, seed=2)
        BSPEngine().run(bsp, steps=80)
        asp = make_session(n_workers=8, seed=2)
        ASPEngine().run(asp, steps=80)
        assert asp.clock.now < bsp.clock.now

    def test_momentum_schedule_changes_training(self):
        default = make_session(seed=4)
        ASPEngine().run(default, steps=40)
        zeroed = make_session(seed=4)
        ASPEngine().run(
            zeroed, steps=40, options={"momentum_schedule": ZeroMomentum()}
        )
        assert not np.allclose(default.ps.peek(), zeroed.ps.peek())

    def test_clock_is_monotone(self):
        session = make_session(n_workers=3)
        times = []
        ASPEngine().run(
            session,
            steps=30,
            stop=lambda s: times.append(s.clock.now),  # returns None
        )
        assert times == sorted(times)

    def test_stop_condition(self):
        session = make_session()
        reason = ASPEngine().run(
            session, steps=400, stop=lambda s: "now" if s.step >= 10 else None
        )
        assert reason == "now"
        assert session.step == 10


class TestSSPEngine:
    def test_completes_and_counts(self):
        session = make_session(n_workers=4)
        reason = SSPEngine().run(session, steps=40)
        assert reason == "completed"
        assert session.step == 40

    def test_tight_bound_reduces_staleness(self):
        loose = make_session(n_workers=8, seed=6)
        ASPEngine().run(loose, steps=160)
        tight = make_session(n_workers=8, seed=6)
        SSPEngine().run(tight, steps=160, options={"staleness_bound": 0})
        assert (
            tight.telemetry.staleness_summary()["p95"]
            <= loose.telemetry.staleness_summary()["p95"]
        )

    def test_tight_bound_costs_throughput(self):
        tight = make_session(n_workers=8, seed=6)
        SSPEngine().run(tight, steps=160, options={"staleness_bound": 0})
        loose = make_session(n_workers=8, seed=6)
        SSPEngine().run(loose, steps=160, options={"staleness_bound": 50})
        assert tight.clock.now > loose.clock.now

    @given(**RUN)
    @relation
    def test_huge_bound_behaves_like_asp(self, seed, n_workers, steps):
        """A bound no push reaches is ASP — the same payload, not a
        close one (see :class:`TestDegenerateParameters`)."""
        ssp = result_payload("ssp", seed, n_workers, steps, staleness_bound=steps)
        assert ssp == result_payload("asp", seed, n_workers, steps)


class TestDSSPEngine:
    def test_completes(self):
        session = make_session(n_workers=4)
        engine = make_engine("dssp")
        reason = engine.run(
            session, steps=60, options={"lower_bound": 1, "upper_bound": 4}
        )
        assert reason == "completed"
        assert session.step == 60

    def test_throughput_between_tight_ssp_and_asp(self):
        tight = make_session(n_workers=8, seed=8)
        SSPEngine().run(tight, steps=120, options={"staleness_bound": 0})
        dssp = make_session(n_workers=8, seed=8)
        make_engine("dssp").run(dssp, steps=120)
        asp = make_session(n_workers=8, seed=8)
        ASPEngine().run(asp, steps=120)
        assert asp.clock.now <= dssp.clock.now <= tight.clock.now * 1.05


class TestDegenerateParameters:
    """Metamorphic relations between the registered protocols.

    Six protocols run on two loops (``engines/barrier.py``,
    ``engines/asynchronous.py``), so at its degenerate parameter each
    protocol *is* its neighbour: the whole result payload — every loss,
    accuracy, clock reading, staleness count and step count — is equal,
    not close.  A relation fails as soon as its two classes stop
    sharing a loop body.  (SSP ≡ ASP is
    ``TestSSPEngine::test_huge_bound_behaves_like_asp``.)
    """

    @given(**RUN)
    @relation
    def test_osp_at_period_one_is_bsp(self, seed, n_workers, steps):
        osp = result_payload("osp", seed, n_workers, steps, sync_period=1)
        assert osp == result_payload("bsp", seed, n_workers, steps)

    @given(**RUN)
    @relation
    def test_casp_with_the_identity_compressor_is_asp(
        self, seed, n_workers, steps
    ):
        casp = result_payload(
            "casp", seed, n_workers, steps, compression="identity"
        )
        assert casp == result_payload("asp", seed, n_workers, steps)

    @given(**RUN, bound=st.integers(0, 4))
    @relation
    def test_dssp_with_a_pinned_bound_is_ssp_until_it_adapts(
        self, seed, n_workers, steps, bound
    ):
        dssp = result_payload(
            "dssp",
            seed,
            n_workers,
            steps,
            lower_bound=bound,
            upper_bound=bound,
            adapt_every=steps,
        )
        assert dssp == result_payload(
            "ssp", seed, n_workers, steps, staleness_bound=bound
        )
