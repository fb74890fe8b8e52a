"""Tests for CASP: compression in the parameter-server push path."""

import numpy as np
import pytest

from repro.distsim.cluster import Cluster, ClusterSpec
from repro.distsim.engines import ASPEngine, CASPEngine, make_engine
from repro.distsim.engines.asynchronous import COMM_FRACTION, comm_saving
from repro.distsim.engines.base import TrainingSession
from repro.distsim.job import JobConfig, Segment
from repro.distsim.timing import timing_for
from repro.errors import ConfigurationError
from repro.mlcore.compression import (
    IdentityCompressor,
    QSGDCompressor,
    make_compressor,
)
from repro.mlcore.datasets import make_dataset
from repro.mlcore.models import make_model


def make_session(n_workers=4, total_steps=400, seed=0) -> TrainingSession:
    job = JobConfig(
        model="resnet32-sim",
        dataset="cifar10-sim",
        total_steps=total_steps,
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


class TestIdentityParity:
    def test_casp_with_identity_matches_plain_asp_bitwise(self):
        """Identity compression changes nothing: same params, same clock.

        This is the registry-era restatement of the golden-hash
        guarantee — the dedicated compression stream only advances when
        a compressor actually draws from it.
        """
        asp = make_session(seed=3)
        ASPEngine().run(asp, steps=60)
        casp = make_session(seed=3)
        CASPEngine().run(
            casp, steps=60, options={"compression": IdentityCompressor()}
        )
        assert np.array_equal(asp.ps.peek(), casp.ps.peek())
        assert asp.clock.now == casp.clock.now
        assert (
            asp.telemetry.staleness_counts == casp.telemetry.staleness_counts
        )

    def test_identity_never_advances_the_compression_stream(self):
        session = make_session(seed=3)
        CASPEngine().run(
            session, steps=20, options={"compression": IdentityCompressor()}
        )
        # The stream may have been created, but identity never draws
        # from it: its next values equal a fresh child stream's.
        fresh = make_session(seed=3)
        for worker in range(4):
            assert (
                session.compression_rng(worker).random()
                == fresh.compression_rng(worker).random()
            ), worker


class TestDedicatedStream:
    def test_casp_default_is_qsgd(self):
        session = make_session(seed=1)
        CASPEngine().run(session, steps=20)
        # Lazily-created child streams exist for the workers that pushed.
        assert session._compression_rngs

    def test_compression_draws_do_not_shift_jitter_stream(self):
        """casp keeps ASP's timing/data streams bit-identical.

        Quantization noise drawn from the worker jitter stream would
        shift every later draw; casp must not.  Jitter streams are
        position-identical when the next raw draws match.
        """
        asp = make_session(seed=5)
        ASPEngine().run(asp, steps=40)
        casp = make_session(seed=5)
        CASPEngine().run(casp, steps=40)
        for worker in range(4):
            assert (
                asp.time_rng(worker).random()
                == casp.time_rng(worker).random()
            ), worker

    def test_legacy_asp_compression_interleaves_instead(self):
        """The pre-registry ASP ``compression`` option (it drew from the
        jitter stream) is gone: plain ASP rejects the key and names the
        engine that takes it, instead of training dense without a word."""
        with pytest.raises(ConfigurationError) as excinfo:
            Segment("asp", 1.0, {"compression": "qsgd"})
        assert str(excinfo.value) == (
            "engine 'asp' does not take option 'compression' (known: "
            "batch_size, lr_multiplier, momentum_schedule); "
            "use protocol 'casp'"
        )

    def test_compression_stream_is_deterministic(self):
        first = make_session(seed=7).compression_rng(2).random(8)
        second = make_session(seed=7).compression_rng(2).random(8)
        assert np.array_equal(first, second)


class TestUnbiasedness:
    def test_qsgd_unbiased_under_child_stream(self):
        """E[compress(g)] == g when fed the session's dedicated stream."""
        session = make_session(seed=11)
        rng = session.compression_rng(0)
        compressor = QSGDCompressor(levels=4)
        grad = np.array([0.5, -1.0, 0.25, 2.0], dtype=np.float32)
        total = np.zeros_like(grad, dtype=np.float64)
        n = 4000
        for _ in range(n):
            total += compressor.compress(grad, rng)
        assert np.allclose(total / n, grad, atol=0.08)


class TestBitsAccounting:
    def test_default_compressor_bits(self):
        compressor = make_compressor("qsgd")
        assert compressor.bits_per_coordinate() == pytest.approx(
            1.0 + np.log2(compressor.levels + 1)
        )
        assert compressor.compression_ratio() == pytest.approx(
            32.0 / compressor.bits_per_coordinate()
        )
        assert compressor.compression_ratio() > 1.0

    def test_comm_saving_matches_compression_ratio(self):
        """casp is faster than plain ASP by exactly the comm saving."""
        asp = make_session(seed=9)
        ASPEngine().run(asp, steps=60)
        casp = make_session(seed=9)
        make_engine("casp").run(casp, steps=60)
        assert casp.clock.now < asp.clock.now
        saving = comm_saving(casp, make_compressor("qsgd"))
        ratio = make_compressor("qsgd").compression_ratio()
        expected = (
            casp.timing.batch_overhead * COMM_FRACTION * (1.0 - 1.0 / ratio)
        )
        assert saving == pytest.approx(expected)
