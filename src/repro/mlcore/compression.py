"""Gradient compression: ternary and stochastic-quantization schemes.

The paper's related work (Section VII) notes that communication-
reduction techniques — TernGrad (Wen et al., NeurIPS 2017) and QSGD
(Alistarh et al., NeurIPS 2017) — are orthogonal to Sync-Switch and
"might be combined with Sync-Switch to achieve further training
speedup".  This module implements both schemes so that combination can
actually be exercised (see the ``casp`` engine and
``benchmarks/bench_ext_compression.py``):

* :class:`TernaryCompressor` — TernGrad-style: each coordinate becomes
  ``s_max * sign(g) * b`` with ``b ~ Bernoulli(|g| / s_max)``.
* :class:`QSGDCompressor` — QSGD-style: stochastic quantization to
  ``levels`` buckets of the normalized magnitude.

Both are *unbiased* (``E[compress(g)] = g``), so SGD still converges —
at the cost of extra gradient variance; both shrink the bytes a push
carries, which the timing model converts into faster communication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "GradientCompressor",
    "IdentityCompressor",
    "TernaryCompressor",
    "QSGDCompressor",
    "make_compressor",
]


class GradientCompressor:
    """Interface: compress a gradient vector, report its wire size."""

    name = "abstract"

    def compress(
        self, grad: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Return the (unbiased) compressed gradient."""
        raise NotImplementedError

    def bits_per_coordinate(self) -> float:
        """Average wire bits per gradient coordinate."""
        raise NotImplementedError

    def compression_ratio(self) -> float:
        """Wire-size reduction vs dense float32 gradients."""
        return 32.0 / self.bits_per_coordinate()


@dataclass(frozen=True)
class IdentityCompressor(GradientCompressor):
    """No-op compressor (dense float32 gradients)."""

    name = "identity"

    def compress(self, grad, rng):
        return grad

    def bits_per_coordinate(self) -> float:
        return 32.0


@dataclass(frozen=True)
class TernaryCompressor(GradientCompressor):
    """TernGrad: gradients quantized to ``{-s, 0, +s}`` per push."""

    name = "ternary"

    def compress(self, grad, rng):
        scale = float(np.abs(grad).max())
        if scale == 0.0:
            return np.zeros_like(grad)
        probabilities = np.abs(grad) / scale
        keep = rng.random(grad.shape) < probabilities
        return (scale * np.sign(grad) * keep).astype(grad.dtype)

    def bits_per_coordinate(self) -> float:
        # log2(3) bits per ternary symbol plus an amortized scale scalar.
        return 1.6


@dataclass(frozen=True)
class QSGDCompressor(GradientCompressor):
    """QSGD: stochastic quantization of magnitudes to ``levels`` buckets."""

    levels: int = 4
    name = "qsgd"

    def __post_init__(self):
        if self.levels < 1:
            raise ConfigurationError("levels must be >= 1")

    def compress(self, grad, rng):
        norm = float(np.linalg.norm(grad))
        if norm == 0.0:
            return np.zeros_like(grad)
        normalized = np.abs(grad) / norm * self.levels
        floor = np.floor(normalized)
        probability = normalized - floor
        bumped = floor + (rng.random(grad.shape) < probability)
        return (np.sign(grad) * bumped * (norm / self.levels)).astype(
            grad.dtype
        )

    def bits_per_coordinate(self) -> float:
        # sign + log2(levels+1) magnitude bits, amortizing the norm scalar.
        return 1.0 + float(np.log2(self.levels + 1))


def make_compressor(name: str, **options) -> GradientCompressor:
    """Instantiate a compressor by name (identity/ternary/qsgd)."""
    if name == "identity":
        return IdentityCompressor()
    if name == "ternary":
        return TernaryCompressor()
    if name == "qsgd":
        return QSGDCompressor(**options)
    raise ConfigurationError(
        f"unknown compressor {name!r}; known: identity, ternary, qsgd"
    )
