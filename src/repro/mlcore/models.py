"""Functional residual MLP classifiers.

The paper trains ResNet32 and ResNet50 (Tensor2Tensor implementations)
on CIFAR-10/100.  Convolutional ResNets on real images are far outside
an offline CPU budget, so this module provides the closest structural
analogue that preserves what the paper's phenomena actually depend on:

* a deep non-convex model with residual (identity skip) connections,
* a clear train/test generalisation gap (finite training set),
* curvature high enough that stale gradients at a large learning rate
  destabilise training, yet low enough that post-decay ASP converges.

Models are *functional*: parameters live in a flat vector (see
:mod:`repro.mlcore.params`) and :meth:`ResidualMLPClassifier.loss_and_grad`
is a pure function of ``(params, batch)``.  An ASP worker expresses a
stale gradient simply by calling it with an old vector.  That holds for
memory too: an instance keeps its layout, tensor positions and one
view cache, and owns no buffer.

The pass is written once, on ``(K, batch, ·)`` windows: the push loop
evaluates ``K`` in-flight workers per call
(:meth:`~ResidualMLPClassifier.loss_and_grad_batch`), and barrier
rounds and evaluation are the same pass at ``K = 1``
(:meth:`~ResidualMLPClassifier.loss_and_grad`, ``evaluate``,
``logits`` add the leading axis and strip it again).

Hot path: every simulated update goes through it, so the
forward/backward pass runs on preallocated memory — typed windows of
the process-wide arena in :mod:`repro.mlcore.scratch`, written via
``out=`` ufuncs/matmuls — instead of allocating ~20 temporaries per
call.  The windows are valid for the pass that asked for them and
nothing backed by them is returned.  Callers that own a long-lived
gradient buffer (the engines) pass it as ``grad_out`` to skip the
output allocation too.  The buffered pass is bit-identical to the
naive one: every operation, operand order and reduction is unchanged,
only the destination memory is reused.  The arena keeps only live
activations: ReLUs run in place and the backward takes its masks from
the post-ReLU windows, and ``evaluate``/``logits`` run the same
forward on a forward-only view set.

Two registry entries mirror the paper's workloads:

* ``resnet32-sim`` — 3 residual blocks, hidden width 64, 10 classes.
* ``resnet50-sim`` — 5 residual blocks, hidden width 96, 100 classes
  (deeper and wider, hence a larger parameter count and a longer
  per-batch compute time, like ResNet50 vs ResNet32).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.mlcore import scratch
from repro.mlcore.losses import accuracy_from_logits
from repro.mlcore.params import ParameterLayout
from repro.rng import make_rng

__all__ = ["ModelConfig", "ResidualMLPClassifier", "make_model", "MODEL_REGISTRY"]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters of a residual MLP classifier."""

    name: str
    input_dim: int
    hidden_dim: int
    n_blocks: int
    n_classes: int
    weight_decay: float = 1e-4
    residual_scale: float = 0.5

    def __post_init__(self):
        if min(self.input_dim, self.hidden_dim, self.n_blocks, self.n_classes) <= 0:
            raise ConfigurationError("model dimensions must be positive")
        if self.weight_decay < 0:
            raise ConfigurationError("weight_decay must be non-negative")


class ResidualMLPClassifier:
    """A residual MLP with manual forward/backward passes.

    Architecture (all dense layers)::

        h = relu(x W_in + b_in)
        for each block i:  h = h + residual_scale * relu(h A_i + a_i) B_i + c_i
        logits = h W_out + b_out
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        shapes: dict[str, tuple[int, ...]] = {
            "w_in": (config.input_dim, config.hidden_dim),
            "b_in": (config.hidden_dim,),
        }
        for block in range(config.n_blocks):
            shapes[f"block{block}/a"] = (config.hidden_dim, config.hidden_dim)
            shapes[f"block{block}/a_bias"] = (config.hidden_dim,)
            shapes[f"block{block}/b"] = (config.hidden_dim, config.hidden_dim)
            shapes[f"block{block}/b_bias"] = (config.hidden_dim,)
        shapes["w_out"] = (config.hidden_dim, config.n_classes)
        shapes["b_out"] = (config.n_classes,)
        self.layout = ParameterLayout(shapes)
        # Weight-decay targets (matrices only), in layout order, and
        # the width of the one decay window they share.
        matrices = [n for n in self.layout.names if len(self.layout.shape(n)) > 1]
        self._matrix_slices = tuple(map(self.layout.slice_of, matrices))
        self._decay_width = max(s.stop - s.start for s in self._matrix_slices)
        # Positional layout for the hot path: tensors are accessed by
        # index into the views list, not by f-string dict keys.
        order = {name: position for position, name in enumerate(self.layout.names)}
        self._pos_w_in = order["w_in"]
        self._pos_b_in = order["b_in"]
        self._pos_w_out = order["w_out"]
        self._pos_b_out = order["b_out"]
        self._pos_blocks = tuple(
            (
                order[f"block{block}/a"],
                order[f"block{block}/a_bias"],
                order[f"block{block}/b"],
                order[f"block{block}/b_bias"],
            )
            for block in range(config.n_blocks)
        )
        self._matrix_positions = tuple(order[name] for name in matrices)
        # Views of recently seen parameter/gradient stacks, keyed by
        # (data pointer, width).  Entries hold STRONG references (the
        # views pin their base), so the memory behind a live key can
        # never be recycled by a different array — that pinning is the
        # safety argument, and the LRU cap bounds the pinned memory.
        self._stacked_cache: dict[tuple, list] = {}

    @property
    def n_parameters(self) -> int:
        """Total scalar parameter count."""
        return self.layout.size

    @property
    def flops_per_sample(self) -> float:
        """Rough forward+backward FLOPs per sample (3 x 2 x weights)."""
        return 6.0 * self.layout.size

    def init_params(
        self,
        seed: int | np.random.Generator,
        dtype: np.dtype | type = np.float32,
    ) -> np.ndarray:
        """He-initialised flat parameter vector (biases zero).

        ``dtype`` controls the precision of the whole training run: the
        gradient inherits the parameter dtype.  float32 is the
        production default (2x faster); gradient-accuracy tests use
        float64.
        """
        rng = make_rng(seed)
        tensors: dict[str, np.ndarray] = {}
        for name in self.layout.names:
            shape = self.layout.shape(name)
            if len(shape) == 1:
                tensors[name] = np.zeros(shape)
                continue
            fan_in = shape[0]
            std = np.sqrt(2.0 / fan_in)
            tensors[name] = rng.normal(0.0, std, size=shape)
        return self.layout.pack(tensors, dtype=dtype)

    def logits(self, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Forward pass only; returns ``(batch, n_classes)`` scores.

        The result is a fresh array (the forward windows belong to
        the next pass of any model).
        """
        workspace, _ = self._forward(params[None], inputs[None], True)
        return workspace.logits[0].copy()

    def evaluate(
        self, params: np.ndarray, inputs: np.ndarray, labels: np.ndarray
    ) -> float:
        """Top-1 accuracy of ``params`` on ``(inputs, labels)``."""
        workspace, _ = self._forward(params[None], inputs[None], True)
        return accuracy_from_logits(workspace.logits[0], labels)

    def loss_and_grad(
        self,
        params: np.ndarray,
        inputs: np.ndarray,
        labels: np.ndarray,
        grad_out: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray]:
        """Mini-batch loss and flat gradient at ``params``.

        The returned loss includes the L2 penalty
        ``0.5 * weight_decay * ||weights||^2`` (weight matrices only,
        biases excluded), and the gradient includes its derivative.

        ``grad_out`` (optional) receives the gradient in place and is
        returned; every component is overwritten, so the buffer needs
        no zeroing between calls.  Without it a fresh vector is
        allocated — the pure-functional default.

        This is the pass of :meth:`loss_and_grad_batch` at ``K = 1``:
        the arguments get a leading axis of one (views, no copies) and
        the result loses it again.
        """
        losses, grads = self._loss_and_grad(
            params[None],
            inputs[None],
            labels[None],
            None if grad_out is None else grad_out[None],
        )
        return losses[0], (grads[0] if grad_out is None else grad_out)

    def loss_and_grad_batch(
        self,
        params_stack: np.ndarray,
        inputs: np.ndarray,
        labels: np.ndarray,
        grad_out: np.ndarray | None = None,
    ) -> tuple[list[float], np.ndarray]:
        """K independent gradient evaluations as one stacked pass.

        ``params_stack`` is ``(K, n_parameters)`` — one flat parameter
        vector per slice; ``inputs`` is ``(K, batch, input_dim)`` and
        ``labels`` ``(K, batch)``.  Returns per-slice losses and a
        ``(K, n_parameters)`` gradient stack.

        numpy applies matmuls and reductions per slice with the same
        accumulation order whatever ``K`` is, so slice ``k`` is
        bit-identical to ``loss_and_grad(params_stack[k], inputs[k],
        labels[k])``.  The asynchronous engines batch all in-flight
        workers' pending gradients through this — one dispatch per
        operation per ``n_workers`` simulated updates instead of one
        per update.
        """
        return self._loss_and_grad(params_stack, inputs, labels, grad_out)

    def _forward(
        self, params_stack: np.ndarray, inputs: np.ndarray,
        forward_only: bool = False,
    ) -> tuple[scratch.PassViews, list[tuple]]:
        """Forward pass of ``K`` parameter vectors on ``K`` batches.

        Returns ``(workspace, tensors)``: the scores are in
        ``workspace.logits``, the last hidden state in
        ``workspace.h[-1]`` and every post-ReLU activation the backward
        pass needs in its window (``forward_only`` keeps none of them);
        ``tensors`` are the stacked parameter views.  ``x @ W + b`` is
        a matmul into the window plus an in-place add, and the ReLU is
        applied in place; both produce the same bits.
        """
        k, batch = inputs.shape[0], inputs.shape[1]
        if params_stack.shape != (k, self.layout.size):
            raise ConfigurationError(
                f"parameters have shape {params_stack.shape}, "
                f"expected {(k, self.layout.size)}"
            )
        workspace = self._scratch(k, batch, inputs, params_stack, forward_only)
        tensors = self._stacked_views(params_stack, cacheable=True)
        h = workspace.h[0]
        np.matmul(inputs, tensors[self._pos_w_in][0], out=h)
        h += tensors[self._pos_b_in][1]
        np.maximum(h, 0.0, out=h)
        scale = self.config.residual_scale
        for block in range(self.config.n_blocks):
            pos_a, pos_a_bias, pos_b, pos_b_bias = self._pos_blocks[block]
            u = workspace.u[block]
            np.matmul(h, tensors[pos_a][0], out=u)
            u += tensors[pos_a_bias][1]
            np.maximum(u, 0.0, out=u)
            nxt = workspace.h[block + 1]
            np.matmul(u, tensors[pos_b][0], out=nxt)
            nxt *= scale
            nxt += h
            nxt += tensors[pos_b_bias][1]
            h = nxt
        np.matmul(h, tensors[self._pos_w_out][0], out=workspace.logits)
        workspace.logits += tensors[self._pos_b_out][1]
        return workspace, tensors

    def _loss_and_grad(
        self,
        params_stack: np.ndarray,
        inputs: np.ndarray,
        labels: np.ndarray,
        grad_out: np.ndarray | None,
    ) -> tuple[list[float], np.ndarray]:
        """The gradient pass, written once: forward, softmax
        cross-entropy, backward and weight decay on ``(K, batch, ·)``
        windows.  ``grad_out``, when given, is ``(K, n_parameters)``."""
        workspace, tensors = self._forward(params_stack, inputs)
        k, batch = inputs.shape[0], inputs.shape[1]

        # Softmax cross-entropy: the op sequence of
        # repro.mlcore.losses.softmax_cross_entropy (log-sum-exp trick,
        # mean loss, 1/batch-scaled gradient), per slice.
        logits = workspace.logits
        np.maximum.reduce(
            logits, axis=2, keepdims=True, out=workspace.row_max
        )
        np.subtract(logits, workspace.row_max, out=workspace.shifted)
        np.exp(workspace.shifted, out=workspace.dlogits)  # scratch use
        np.add.reduce(
            workspace.dlogits, axis=2, keepdims=True, out=workspace.sum_exp
        )
        np.log(workspace.sum_exp, out=workspace.sum_exp)
        np.subtract(
            workspace.shifted, workspace.sum_exp, out=workspace.log_probs
        )
        rows, slices = workspace.rows, workspace.slices
        picked = workspace.log_probs[slices, rows, labels]
        row_sums = np.add.reduce(picked, axis=1)
        # float32 sum / python int divides in float32 — exactly what
        # ndarray.mean does for float inputs.
        losses = [
            float(-(picked.dtype.type(row_sums[index] / batch)))
            for index in range(k)
        ]
        dlogits = workspace.dlogits
        np.exp(workspace.log_probs, out=dlogits)
        dlogits[slices, rows, labels] -= 1.0
        dlogits /= batch

        if grad_out is None:
            grads_stack = np.empty_like(params_stack)
            grads = self._stacked_views(grads_stack)
        else:
            if grad_out.shape != params_stack.shape:
                raise ConfigurationError(
                    "grad_out does not match the parameters"
                )
            grads_stack = grad_out
            grads = self._stacked_views(grads_stack, cacheable=True)
        # Reductions write straight into the gradient views only when
        # the accumulation dtype is unchanged by it (mixed-precision
        # calls keep the allocate-then-cast order of the naive form).
        fused_sums = dlogits.dtype == grads_stack.dtype

        def sum_rows(delta, position):
            if fused_sums:
                np.add.reduce(delta, axis=1, out=grads[position][0])
            else:
                grads[position][0][:] = delta.sum(axis=1)

        def transposed(stack):
            return stack.transpose(0, 2, 1)

        np.matmul(
            transposed(workspace.h[-1]), dlogits, out=grads[self._pos_w_out][0]
        )
        sum_rows(dlogits, self._pos_b_out)
        dh = workspace.dh
        np.matmul(
            dlogits, transposed(tensors[self._pos_w_out][0]), out=dh
        )

        scale = self.config.residual_scale
        du, mm, mask = workspace.du, workspace.mm, workspace.mask
        for block in reversed(range(self.config.n_blocks)):
            pos_a, pos_a_bias, pos_b, pos_b_bias = self._pos_blocks[block]
            h_in, u = workspace.h[block], workspace.u[block]
            grad_b = grads[pos_b][0]
            np.matmul(transposed(u), dh, out=grad_b)
            grad_b *= scale
            sum_rows(dh, pos_b_bias)
            np.matmul(dh, transposed(tensors[pos_b][0]), out=du)
            du *= scale
            # max(z, 0) > 0 is z > 0 for every float (-0.0, NaN too).
            np.greater(u, 0, out=mask)
            du *= mask
            np.matmul(transposed(h_in), du, out=grads[pos_a][0])
            sum_rows(du, pos_a_bias)
            np.matmul(du, transposed(tensors[pos_a][0]), out=mm)
            dh += mm

        np.greater(workspace.h[0], 0, out=mask)
        dh *= mask
        np.matmul(transposed(inputs), dh, out=grads[self._pos_w_in][0])
        sum_rows(dh, self._pos_b_in)

        # Weight decay, per matrix: ``grad += weights * decay`` on each
        # stacked matrix view, the product in a prefix of the one
        # ``(K, largest matrix)`` window; biases are never touched.
        # The L2 loss keeps the per-tensor accumulation order.
        decay = self.config.weight_decay
        if decay != 0.0:
            flat = workspace.decay.reshape(-1)
            for position in self._matrix_positions:
                weights, grad = tensors[position][0], grads[position][0]
                product = flat[: weights.size].reshape(weights.shape)
                np.multiply(weights, decay, out=product)
                grad += product
            for index in range(k):
                row = params_stack[index]
                reg_loss = 0.0
                for view in self._matrix_slices:
                    weights = row[view]
                    reg_loss += 0.5 * decay * float(weights @ weights)
                losses[index] += reg_loss
        return losses, grads_stack

    def _stacked_views(
        self, stack: np.ndarray, cacheable: bool = False
    ) -> list[tuple]:
        """Per-tensor stacked views of a ``(K, size)`` buffer.

        Entry ``position`` is ``(main, broadcast)``: matrices get
        ``((K, s0, s1), None)``; biases get ``((K, n), (K, 1, n))`` —
        the flat form for reductions, the broadcast form for the
        forward bias adds.  Pass ``cacheable=True`` only for reused,
        caller-stable buffers (parameter-server snapshots, session
        gradient buffers, the batcher's staging matrices); cached
        entries pin their buffer, so per-call transients must not be
        cached.

        The cache key is ``(data pointer, K)``, never ``id(stack)``:
        the batcher passes ``[:K]`` prefix views of one buffer and the
        single-vector adaptors a new ``[None]`` view per call, the
        cached views pin that *buffer* and not the view object, so a
        collected view's id can come back on a view of another width
        over the same pointer.  Pointer and width determine the views
        of a C-contiguous stack; others are never cached.  The
        parameter server's copy-on-write pool cycles a small stable
        set of buffers, which keeps the key set small.
        """
        cacheable = cacheable and stack.flags.c_contiguous
        if cacheable:
            key = (stack.__array_interface__["data"][0], stack.shape[0])
            views = self._stacked_cache.get(key)
            if views is not None:
                return views
        k = stack.shape[0]
        views = []
        for _, view_slice, shape in self.layout.view_specs:
            window = stack[:, view_slice]
            if len(shape) > 1:
                views.append((window.reshape((k,) + shape), None))
            else:
                views.append((window, window.reshape((k, 1) + shape)))
        if cacheable:
            cache = self._stacked_cache
            if len(cache) >= 16:
                cache.pop(next(iter(cache)))
            cache[key] = views
        return views

    def _scratch(
        self, k: int, batch: int, inputs: np.ndarray, params: np.ndarray,
        forward_only: bool = False,
    ) -> scratch.PassViews:
        """The process arena's windows for a ``k``-wide pass of ``batch``
        rows; valid until the next pass (of any model) asks."""
        config = self.config
        dtype = np.result_type(inputs.dtype, params.dtype)
        return scratch.ARENA.views(
            config.hidden_dim, config.n_classes, config.n_blocks, k, batch,
            dtype, self._decay_width, params.dtype, forward_only,
        )

    def __repr__(self) -> str:
        return (
            f"ResidualMLPClassifier({self.config.name!r}, "
            f"params={self.n_parameters})"
        )


# Constants below are the result of the calibration pass documented in
# EXPERIMENTS.md: they put BSP/ASP converged accuracy, the switch-point
# knee, and the 16-worker ASP divergence in the paper's qualitative
# regime at simulator scale.
MODEL_REGISTRY: dict[str, ModelConfig] = {
    "resnet32-sim": ModelConfig(
        name="resnet32-sim",
        input_dim=24,
        hidden_dim=64,
        n_blocks=3,
        n_classes=10,
        weight_decay=5e-4,
    ),
    "resnet50-sim": ModelConfig(
        name="resnet50-sim",
        input_dim=48,
        hidden_dim=80,
        n_blocks=4,
        n_classes=100,
        weight_decay=5e-4,
    ),
}


def make_model(name: str) -> ResidualMLPClassifier:
    """Instantiate a registered model by name."""
    if name not in MODEL_REGISTRY:
        raise ConfigurationError(
            f"unknown model {name!r}; registered: {sorted(MODEL_REGISTRY)}"
        )
    return ResidualMLPClassifier(MODEL_REGISTRY[name])
