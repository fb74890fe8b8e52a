"""Tests for the residual MLP classifier."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mlcore.datasets import make_dataset
from repro.mlcore.models import (
    MODEL_REGISTRY,
    ModelConfig,
    ResidualMLPClassifier,
    make_model,
)


def small_model(weight_decay=0.0) -> ResidualMLPClassifier:
    return ResidualMLPClassifier(
        ModelConfig(
            name="tiny",
            input_dim=6,
            hidden_dim=8,
            n_blocks=2,
            n_classes=4,
            weight_decay=weight_decay,
        )
    )


def test_registry_contains_paper_workloads():
    assert set(MODEL_REGISTRY) == {"resnet32-sim", "resnet50-sim"}


def test_make_model_rejects_unknown():
    with pytest.raises(ConfigurationError, match="unknown model"):
        make_model("resnet18-sim")


def test_resnet50_is_bigger_than_resnet32():
    small = make_model("resnet32-sim")
    large = make_model("resnet50-sim")
    assert large.n_parameters > small.n_parameters


def test_init_params_deterministic_per_seed():
    model = small_model()
    assert np.array_equal(model.init_params(3), model.init_params(3))
    assert not np.array_equal(model.init_params(3), model.init_params(4))


def test_init_params_dtype():
    model = small_model()
    assert model.init_params(0).dtype == np.float32
    assert model.init_params(0, dtype=np.float64).dtype == np.float64


def test_biases_initialised_to_zero():
    model = small_model()
    params = model.init_params(0, dtype=np.float64)
    assert np.all(model.layout.view(params, "b_in") == 0.0)
    assert np.all(model.layout.view(params, "b_out") == 0.0)


def test_gradient_matches_finite_difference():
    model = small_model(weight_decay=1e-3)
    rng = np.random.default_rng(0)
    params = model.init_params(0, dtype=np.float64)
    inputs = rng.normal(size=(9, 6))
    labels = rng.integers(0, 4, size=9)
    loss, grad = model.loss_and_grad(params, inputs, labels)
    assert np.isfinite(loss)
    eps = 1e-6
    for index in rng.integers(0, params.size, size=25):
        plus = params.copy()
        plus[index] += eps
        minus = params.copy()
        minus[index] -= eps
        loss_plus, _ = model.loss_and_grad(plus, inputs, labels)
        loss_minus, _ = model.loss_and_grad(minus, inputs, labels)
        fd = (loss_plus - loss_minus) / (2 * eps)
        assert abs(fd - grad[index]) < 1e-5 * max(1.0, abs(fd))


def test_gradient_dtype_follows_params():
    model = small_model()
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(4, 6)).astype(np.float32)
    labels = rng.integers(0, 4, size=4)
    _, grad32 = model.loss_and_grad(model.init_params(0), inputs, labels)
    assert grad32.dtype == np.float32


def test_weight_decay_increases_loss():
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(16, 6))
    labels = rng.integers(0, 4, size=16)
    plain = small_model(weight_decay=0.0)
    decayed = small_model(weight_decay=1e-2)
    params = plain.init_params(0, dtype=np.float64)
    loss_plain, _ = plain.loss_and_grad(params, inputs, labels)
    loss_decayed, _ = decayed.loss_and_grad(params, inputs, labels)
    assert loss_decayed > loss_plain


def test_weight_decay_does_not_touch_biases():
    model = small_model(weight_decay=1e-2)
    params = model.init_params(0, dtype=np.float64)
    inputs = np.zeros((2, 6))
    labels = np.zeros(2, dtype=np.int64)
    # With zero inputs, data gradients w.r.t. input weights are zero, so
    # the bias gradient should carry no decay term for a zero bias.
    _, grad = model.loss_and_grad(params, inputs, labels)
    b_in = model.layout.view(grad, "b_in")
    w_in_view = model.layout.slice_of("w_in")
    assert np.allclose(
        grad[w_in_view], 1e-2 * params[w_in_view]
    )  # pure decay on weights (no data signal through zero inputs)
    assert not np.allclose(b_in, 1e-2 * np.ones_like(b_in))


def test_logits_shape_and_evaluate():
    model = small_model()
    dataset_like = np.random.default_rng(0).normal(size=(10, 6))
    params = model.init_params(0)
    logits = model.logits(params, dataset_like.astype(np.float32))
    assert logits.shape == (10, 4)
    labels = logits.argmax(axis=1)
    assert model.evaluate(params, dataset_like.astype(np.float32), labels) == 1.0


def test_registered_model_matches_registered_dataset():
    model = make_model("resnet32-sim")
    dataset = make_dataset("cifar10-sim")
    assert model.config.input_dim == dataset.input_dim
    assert model.config.n_classes == dataset.n_classes


def test_invalid_config_rejected():
    with pytest.raises(ConfigurationError):
        ModelConfig(name="bad", input_dim=0, hidden_dim=4, n_blocks=1, n_classes=2)
    with pytest.raises(ConfigurationError):
        ModelConfig(
            name="bad",
            input_dim=4,
            hidden_dim=4,
            n_blocks=1,
            n_classes=2,
            weight_decay=-1e-4,
        )
