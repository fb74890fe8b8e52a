"""Synthetic CIFAR-like classification datasets.

The paper trains on CIFAR-10 and CIFAR-100 (60K 32x32 images each; the
key difference is 10 vs 100 classes — Section VI-A).  Real image data is
unavailable offline and convolutional training is outside the CPU
budget, so this module generates structurally similar tasks:

* inputs are dense Gaussian vectors (stand-ins for image features),
* labels come from a random *nonlinear teacher network*, so the decision
  boundary is non-convex and learnable by the residual MLP student,
* class-score (Gumbel) noise plus label flips bound the achievable test
  accuracy, producing a genuine generalisation gap, and
* the train split is finite, so training loss can be driven far below
  population loss — the property the paper's theoretical explanation
  (Remarks A.1/A.2) relies on.

``cifar10-sim`` / ``cifar100-sim`` mirror the 10-way and 100-way tasks;
the 100-way task is harder and converges to a much lower accuracy, as in
the paper (0.92 vs 0.75 ballpark).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import child_rng

__all__ = [
    "DatasetConfig",
    "SyntheticDataset",
    "ShardIndexStream",
    "make_dataset",
    "make_datasets",
    "DATASET_REGISTRY",
]


class ShardIndexStream:
    """Chunked pre-draws of one worker's shard sample indices.

    ``Generator.integers`` fills vectorized draws from the same stream
    in the same order as repeated smaller draws, so serving mini-batch
    index blocks out of a pre-drawn chunk is bit-identical to drawing
    per batch — while paying the Generator call overhead once per
    ``chunk`` indices.  :meth:`snapshot`/:meth:`restore` capture the
    exact stream position so an eagerly drawn batch can be rewound
    (see :class:`repro.distsim.engines.base.GradientBatcher`).
    """

    __slots__ = (
        "_rng", "_lo", "_hi", "_chunk", "_buffer", "_position",
        "_state_after_fill",
    )

    def __init__(
        self,
        rng: np.random.Generator,
        lo: int,
        hi: int,
        chunk: int = 4096,
    ):
        if chunk <= 0:
            raise ConfigurationError("index chunk must be positive")
        self._rng = rng
        self._lo = lo
        self._hi = hi
        self._chunk = chunk
        self._buffer = np.empty(0, dtype=np.int64)
        self._position = 0
        # Generator state right after the current buffer was drawn —
        # captured once per refill so snapshot() is allocation-free.
        self._state_after_fill = rng.bit_generator.state

    def draw(self, size: int) -> np.ndarray:
        """The next ``size`` indices of this worker's sample stream."""
        if size <= 0:
            raise ConfigurationError("batch size must be positive")
        buffer, position = self._buffer, self._position
        end = position + size
        if end <= buffer.shape[0]:
            self._position = end
            return buffer[position:end]
        leftover = buffer[position:]
        need = size - leftover.shape[0]
        fresh = self._rng.integers(
            self._lo, self._hi, size=max(self._chunk, need)
        )
        self._state_after_fill = self._rng.bit_generator.state
        self._buffer = fresh
        self._position = need
        if leftover.shape[0] == 0:
            return fresh[:need]
        return np.concatenate([leftover, fresh[:need]])

    def snapshot(self) -> tuple:
        """Exact stream position (buffer, offset, post-fill state)."""
        return (self._buffer, self._position, self._state_after_fill)

    def restore(self, snapshot: tuple) -> None:
        """Rewind to a :meth:`snapshot` (undoes draws made since).

        Restoring the post-fill generator state means any refill after
        the rewound position regenerates exactly the values it produced
        the first time.
        """
        self._buffer, self._position, state = snapshot
        self._state_after_fill = state
        self._rng.bit_generator.state = state


@dataclass(frozen=True)
class DatasetConfig:
    """Generation parameters for a synthetic classification task."""

    name: str
    n_classes: int
    input_dim: int
    train_size: int
    test_size: int
    teacher_hidden: int = 48
    score_noise: float = 0.25
    label_flip_prob: float = 0.02
    seed: int = 20210421

    def __post_init__(self):
        if min(self.n_classes, self.input_dim, self.train_size, self.test_size) <= 0:
            raise ConfigurationError("dataset sizes must be positive")
        if not 0.0 <= self.label_flip_prob < 1.0:
            raise ConfigurationError("label_flip_prob must be in [0, 1)")
        if self.score_noise < 0:
            raise ConfigurationError("score_noise must be non-negative")


#: Rows labelled per Gumbel draw in :class:`SyntheticDataset`.  Only
#: the label loop is blocked.  The two teacher matmuls stay whole:
#: row-blocked dgemm was measured NOT bit-equal to the one-shot product
#: on this OpenBLAS (first matmul of ``cifar10-sim`` at every block size
#: tried, second of ``cifar100-sim`` at 256 rows) — do not retry it.
_LABEL_BLOCK_ROWS = 1024


class SyntheticDataset:
    """A fixed train/test split sampled from a random teacher network."""

    def __init__(self, config: DatasetConfig):
        self.config = config
        rng = child_rng(config.seed, f"dataset/{config.name}")
        teacher_w1 = rng.normal(
            0.0, 1.0 / np.sqrt(config.input_dim),
            size=(config.input_dim, config.teacher_hidden),
        )
        teacher_w2 = rng.normal(
            0.0, 2.0 / np.sqrt(config.teacher_hidden),
            size=(config.teacher_hidden, config.n_classes),
        )
        total = config.train_size + config.test_size
        inputs = rng.normal(0.0, 1.0, size=(total, config.input_dim))
        hidden = inputs @ teacher_w1
        # The float64 draw is dead once the teacher has seen it: at most
        # three big arrays (inputs, hidden, scores) are alive from here.
        inputs = inputs.astype(np.float32)
        np.maximum(hidden, 0.0, out=hidden)
        scores = hidden @ teacher_w2
        del hidden
        # Gumbel noise and argmax in row blocks: the Generator fills a
        # draw element by element in C order, so block draws are the
        # one-shot draw's values, without three (total x n_classes)
        # float64 temporaries alive at once.
        labels = np.empty(total, dtype=np.intp)
        for lo in range(0, total, _LABEL_BLOCK_ROWS):
            block = scores[lo : lo + _LABEL_BLOCK_ROWS]
            noisy = block + config.score_noise * rng.gumbel(size=block.shape)
            labels[lo : lo + _LABEL_BLOCK_ROWS] = noisy.argmax(axis=1)
        del scores
        flips = rng.random(total) < config.label_flip_prob
        labels[flips] = rng.integers(0, config.n_classes, size=int(flips.sum()))

        self.x_train = inputs[: config.train_size]
        self.y_train = labels[: config.train_size]
        self.x_test = inputs[config.train_size :]
        self.y_test = labels[config.train_size :]
        self._shard_ranges: dict[tuple[int, int], tuple[int, int]] = {}

    @property
    def n_classes(self) -> int:
        """Number of label classes."""
        return self.config.n_classes

    @property
    def input_dim(self) -> int:
        """Input feature dimensionality."""
        return self.config.input_dim

    def batch(
        self, rng: np.random.Generator, size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample a training mini-batch (with replacement)."""
        if size <= 0:
            raise ConfigurationError("batch size must be positive")
        indices = rng.integers(0, self.config.train_size, size=size)
        return self.x_train[indices], self.y_train[indices]

    def shard_range(self, shard: int, n_shards: int) -> tuple[int, int]:
        """Contiguous ``[lo, hi)`` train-index range owned by ``shard``.

        Data parallelism partitions the training data across workers
        (paper Section II-A); every sample belongs to exactly one shard.
        Cached per ``(shard, n_shards)``: this runs once per simulated
        mini-batch.
        """
        cached = self._shard_ranges.get((shard, n_shards))
        if cached is not None:
            return cached
        if not 0 <= shard < n_shards:
            raise ConfigurationError(f"shard {shard} out of range for {n_shards}")
        base, extra = divmod(self.config.train_size, n_shards)
        lo = shard * base + min(shard, extra)
        hi = lo + base + (1 if shard < extra else 0)
        self._shard_ranges[(shard, n_shards)] = (lo, hi)
        return lo, hi

    def shard_indices(
        self,
        rng: np.random.Generator,
        size: int,
        shard: int,
        n_shards: int,
    ) -> np.ndarray:
        """Draw one mini-batch of train indices from a worker's shard.

        Split out of :meth:`shard_batch` so a synchronous round can
        concatenate every worker's indices and gather once.
        """
        if size <= 0:
            raise ConfigurationError("batch size must be positive")
        lo, hi = self.shard_range(shard, n_shards)
        return rng.integers(lo, hi, size=size)

    def shard_batch(
        self,
        rng: np.random.Generator,
        size: int,
        shard: int,
        n_shards: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample a mini-batch from one worker's data shard."""
        indices = self.shard_indices(rng, size, shard, n_shards)
        return self.x_train[indices], self.y_train[indices]

    def __repr__(self) -> str:
        return (
            f"SyntheticDataset({self.config.name!r}, "
            f"classes={self.n_classes}, train={self.config.train_size})"
        )


# Constants calibrated alongside MODEL_REGISTRY (see EXPERIMENTS.md):
# the 10-way task converges near the paper's CIFAR-10 regime and the
# 100-way task is markedly harder, like CIFAR-100.
DATASET_REGISTRY: dict[str, DatasetConfig] = {
    "cifar10-sim": DatasetConfig(
        name="cifar10-sim",
        n_classes=10,
        input_dim=24,
        train_size=20000,
        test_size=2000,
        teacher_hidden=12,
        score_noise=0.05,
        label_flip_prob=0.005,
    ),
    "cifar100-sim": DatasetConfig(
        name="cifar100-sim",
        n_classes=100,
        input_dim=48,
        train_size=20000,
        test_size=2000,
        teacher_hidden=24,
        score_noise=0.05,
        label_flip_prob=0.005,
    ),
}

_CACHE: dict[str, SyntheticDataset] = {}


def make_dataset(name: str) -> SyntheticDataset:
    """Instantiate (and memoise) a registered dataset by name.

    Generation is a pure function of the config, so the memo changes
    no bit.  :class:`~repro.experiments.executor.ParallelExecutor`
    fills it before a batch's cells run or its pool forks: every cell
    and every forked worker reads the one copy.
    """
    if name not in DATASET_REGISTRY:
        raise ConfigurationError(
            f"unknown dataset {name!r}; registered: {sorted(DATASET_REGISTRY)}"
        )
    if name not in _CACHE:
        _CACHE[name] = SyntheticDataset(DATASET_REGISTRY[name])
    return _CACHE[name]


def make_datasets(names: set[str]) -> None:
    """Memoise every named dataset, largest first: the largest
    generation transient then lands on top of no other dataset."""
    configs = [DATASET_REGISTRY[name] for name in names]
    configs.sort(key=lambda c: (c.train_size + c.test_size) * c.input_dim)
    for config in reversed(configs):
        make_dataset(config.name)
