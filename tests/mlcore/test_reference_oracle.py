"""The production gradient pass against the textbook one, exactly.

``reference_model`` shares no code with :mod:`repro.mlcore`, issues the
same BLAS calls on the same shapes, and is compared byte for byte — so
this module does **not** consult ``REPRO_GOLDEN_SKIP``: it is the check
that still runs on the BLAS builds where the committed hashes do not.
"""

import dataclasses

import numpy as np
import pytest

import reference_model
from repro.mlcore.models import MODEL_REGISTRY, ModelConfig, ResidualMLPClassifier

CONFIGS = {
    **MODEL_REGISTRY,
    "tiny": ModelConfig(
        name="tiny", input_dim=6, hidden_dim=8, n_blocks=2, n_classes=4
    ),
}
#: (parameter dtype, input dtype): production float32, the
#: gradient-check float64, and float64 parameters on float32 data.
DTYPES = {
    "f32-f32": (np.float32, np.float32),
    "f64-f64": (np.float64, np.float64),
    "f64-f32": (np.float64, np.float32),
}
BATCHES = (1, 7, 64, 1000)
WIDTHS = (1, 3, 16)


def _case(name, dtypes, weight_decay, batch):
    """A model and the widest ``(params, inputs, labels)`` stack for it;
    narrower stacks are its prefixes."""
    config = dataclasses.replace(CONFIGS[name], weight_decay=weight_decay)
    model = ResidualMLPClassifier(config)
    params_dtype, inputs_dtype = DTYPES[dtypes]
    rng = np.random.default_rng(batch)
    k = max(WIDTHS)
    stack = np.stack(
        [model.init_params(seed, dtype=params_dtype) for seed in range(k)]
    )
    # Biases start at zero; move them so a lost bias term shows.
    stack += rng.normal(scale=0.05, size=stack.shape).astype(params_dtype)
    # One dead unit per ReLU layer: its pre-activation is exactly 0 on
    # every sample, which is where `>` and `>=` masks part ways.
    for row in stack:
        tensors = reference_model.unpack(config, row)
        for weights, bias in [("w_in", "b_in")] + [
            (f"a{block}", f"a_bias{block}") for block in range(config.n_blocks)
        ]:
            tensors[weights][:, 0] = 0.0
            tensors[bias][0] = 0.0
    inputs = rng.normal(size=(k, batch, config.input_dim)).astype(inputs_dtype)
    labels = rng.integers(0, config.n_classes, size=(k, batch))
    return model, stack, inputs, labels


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
@pytest.mark.parametrize("dtypes", sorted(DTYPES))
@pytest.mark.parametrize("name", sorted(CONFIGS))
class TestAgainstTextbookReference:
    @pytest.mark.parametrize("batch", BATCHES)
    def test_loss_and_grad_single_and_stacked(
        self, name, dtypes, weight_decay, batch
    ):
        model, stack, inputs, labels = _case(name, dtypes, weight_decay, batch)
        config = model.config
        expected = [
            reference_model.loss_and_grad(
                config, stack[row], inputs[row], labels[row]
            )
            for row in range(len(stack))
        ]
        # The single-vector entry points on the first rows (they are
        # the K = 1 stack below, reached through the adaptors).
        for row, (loss, grad) in enumerate(expected[:3]):
            fresh = model.loss_and_grad(stack[row], inputs[row], labels[row])
            buffer = np.full(model.layout.size, np.nan, dtype=stack.dtype)
            reused = model.loss_and_grad(
                stack[row], inputs[row], labels[row], grad_out=buffer
            )
            assert reused[1] is buffer and fresh[1].shape == buffer.shape
            for got_loss, got in (fresh, reused):
                assert got_loss == loss and type(got_loss) is float
                assert got.dtype == grad.dtype and got.tobytes() == grad.tobytes()
        for k in WIDTHS:
            window = stack[:k], inputs[:k], labels[:k]
            buffer = np.full((k, model.layout.size), np.nan, dtype=stack.dtype)
            reused = model.loss_and_grad_batch(*window, grad_out=buffer)
            assert reused[1] is buffer
            for losses, grads in (model.loss_and_grad_batch(*window), reused):
                assert losses == [loss for loss, _ in expected[:k]]
                assert grads.dtype == stack.dtype
                for row in range(k):
                    assert grads[row].tobytes() == expected[row][1].tobytes()

    def test_logits_and_evaluate(self, name, dtypes, weight_decay):
        for batch in BATCHES:
            model, stack, inputs, labels = _case(
                name, dtypes, weight_decay, batch
            )
            scores = reference_model.logits(model.config, stack[0], inputs[0])
            got = model.logits(stack[0], inputs[0])
            assert got.dtype == scores.dtype and got.tobytes() == scores.tobytes()
            # Labels the model gets right about half the time.
            mixed = np.where(labels[0] % 2, labels[0], scores.argmax(axis=1))
            accuracy = model.evaluate(stack[0], inputs[0], mixed)
            assert accuracy == reference_model.evaluate(
                model.config, stack[0], inputs[0], mixed
            )
            assert type(accuracy) is float
