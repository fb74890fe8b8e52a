"""Tests for the synthetic datasets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.mlcore.datasets import (
    DATASET_REGISTRY,
    DatasetConfig,
    SyntheticDataset,
    make_dataset,
)


def tiny_config(**overrides) -> DatasetConfig:
    base = dict(
        name="tiny",
        n_classes=5,
        input_dim=8,
        train_size=200,
        test_size=50,
        teacher_hidden=6,
        score_noise=0.1,
        label_flip_prob=0.05,
        seed=1,
    )
    base.update(overrides)
    return DatasetConfig(**base)


def test_split_sizes_and_shapes():
    dataset = SyntheticDataset(tiny_config())
    assert dataset.x_train.shape == (200, 8)
    assert dataset.x_test.shape == (50, 8)
    assert dataset.y_train.shape == (200,)
    assert dataset.y_test.shape == (50,)


def test_labels_in_range():
    dataset = SyntheticDataset(tiny_config())
    assert dataset.y_train.min() >= 0
    assert dataset.y_train.max() < 5


def test_inputs_are_float32():
    dataset = SyntheticDataset(tiny_config())
    assert dataset.x_train.dtype == np.float32


def test_generation_is_deterministic():
    a = SyntheticDataset(tiny_config())
    b = SyntheticDataset(tiny_config())
    assert np.array_equal(a.x_train, b.x_train)
    assert np.array_equal(a.y_test, b.y_test)


def _one_shot_split(config: DatasetConfig):
    """The construction with every ``(total, n_classes)`` array whole."""
    from repro.rng import child_rng

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
    scores = np.maximum(inputs @ teacher_w1, 0.0) @ teacher_w2
    noisy = scores + config.score_noise * rng.gumbel(size=scores.shape)
    labels = noisy.argmax(axis=1)
    flips = rng.random(total) < config.label_flip_prob
    labels[flips] = rng.integers(0, config.n_classes, size=int(flips.sum()))
    inputs = inputs.astype(np.float32)
    cut = config.train_size
    return inputs[:cut], labels[:cut], inputs[cut:], labels[cut:]


@pytest.mark.parametrize("name", sorted(DATASET_REGISTRY))
def test_blockwise_labelling_equals_one_shot_construction(name):
    """Row-block Gumbel draws are the one-shot draw's values (the
    Generator stream is element-sequential), so both registered
    datasets are unchanged bit for bit — and so is a split whose size
    is not a multiple of the block."""
    for config in (
        DATASET_REGISTRY[name],
        tiny_config(name=name, train_size=2500, test_size=333),
    ):
        dataset = SyntheticDataset(config)
        built = (
            dataset.x_train, dataset.y_train, dataset.x_test, dataset.y_test
        )
        for got, expected in zip(built, _one_shot_split(config)):
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()


def test_different_seed_changes_data():
    a = SyntheticDataset(tiny_config(seed=1))
    b = SyntheticDataset(tiny_config(seed=2))
    assert not np.array_equal(a.x_train, b.x_train)


def test_task_is_learnable_not_trivial():
    """A linear probe should beat chance but not saturate."""
    dataset = SyntheticDataset(tiny_config(train_size=2000, test_size=500))
    x, y = dataset.x_train, dataset.y_train
    onehot = np.eye(5)[y]
    weights, *_ = np.linalg.lstsq(x, onehot, rcond=None)
    predictions = (dataset.x_test @ weights).argmax(axis=1)
    accuracy = (predictions == dataset.y_test).mean()
    assert accuracy > 0.3  # better than the 0.2 chance level
    assert accuracy < 0.95  # nonlinear teacher: linear probe can't saturate


def test_batch_sampling_shapes_and_membership():
    dataset = SyntheticDataset(tiny_config())
    rng = np.random.default_rng(0)
    x, y = dataset.batch(rng, 32)
    assert x.shape == (32, 8)
    assert y.shape == (32,)


def test_batch_rejects_nonpositive_size():
    dataset = SyntheticDataset(tiny_config())
    with pytest.raises(ConfigurationError):
        dataset.batch(np.random.default_rng(0), 0)


@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=50, max_value=300),
)
@settings(max_examples=25, deadline=None)
def test_shard_ranges_partition_train_set(n_shards, train_size):
    dataset = SyntheticDataset(tiny_config(train_size=train_size))
    covered = 0
    previous_hi = 0
    for shard in range(n_shards):
        lo, hi = dataset.shard_range(shard, n_shards)
        assert lo == previous_hi
        assert hi >= lo
        covered += hi - lo
        previous_hi = hi
    assert covered == train_size


def test_shard_batch_stays_in_shard():
    dataset = SyntheticDataset(tiny_config())
    rng = np.random.default_rng(0)
    lo, hi = dataset.shard_range(1, 4)
    x, _ = dataset.shard_batch(rng, 64, shard=1, n_shards=4)
    pool = dataset.x_train[lo:hi]
    # every sampled row must exist in the shard's pool
    for row in x[:8]:
        assert (np.abs(pool - row).sum(axis=1) < 1e-12).any()


def test_shard_range_rejects_bad_index():
    dataset = SyntheticDataset(tiny_config())
    with pytest.raises(ConfigurationError):
        dataset.shard_range(4, 4)


def test_registry_matches_paper_class_counts():
    assert DATASET_REGISTRY["cifar10-sim"].n_classes == 10
    assert DATASET_REGISTRY["cifar100-sim"].n_classes == 100


def test_make_dataset_caches():
    assert make_dataset("cifar10-sim") is make_dataset("cifar10-sim")


def test_make_dataset_rejects_unknown():
    with pytest.raises(ConfigurationError):
        make_dataset("imagenet-sim")


def test_invalid_configs_rejected():
    with pytest.raises(ConfigurationError):
        tiny_config(n_classes=0)
    with pytest.raises(ConfigurationError):
        tiny_config(label_flip_prob=1.5)
    with pytest.raises(ConfigurationError):
        tiny_config(score_noise=-0.1)
