"""Textbook residual-MLP pass — the oracle the kernel tests use.

One sample batch, one flat parameter vector, fresh arrays for every
intermediate: ``relu(x @ W + b)`` forward, log-sum-exp cross-entropy,
``h.T @ d`` / ``d.sum(axis=0)`` backward, weight decay tensor by tensor.
It shares no code with :mod:`repro.mlcore` (not the layout, not the
loss, not the arena), so the two can only agree by both being right —
and they agree *exactly*, because each product and reduction here has
the operands, order and dtype of the production one.  Kept slow and
obvious on purpose; do not "tidy" it toward the production code.
"""

import numpy as np


def unpack(config, vector):
    """Named tensor views of a flat vector, in the model's layout order."""
    d, h, c = config.input_dim, config.hidden_dim, config.n_classes
    shapes = [("w_in", (d, h)), ("b_in", (h,))]
    for block in range(config.n_blocks):
        shapes += [
            (f"a{block}", (h, h)), (f"a_bias{block}", (h,)),
            (f"b{block}", (h, h)), (f"b_bias{block}", (h,)),
        ]
    shapes += [("w_out", (h, c)), ("b_out", (c,))]
    tensors, offset = {}, 0
    for name, shape in shapes:
        size = int(np.prod(shape))
        tensors[name] = vector[offset : offset + size].reshape(shape)
        offset += size
    assert offset == vector.size
    return tensors


def forward(config, params, x):
    """``(logits, trace)``; the trace rows are ``(h_in, u_pre, u)`` per block."""
    t = unpack(config, params)
    z_pre = x @ t["w_in"] + t["b_in"]
    h, trace = np.maximum(z_pre, 0.0), []
    for block in range(config.n_blocks):
        u_pre = h @ t[f"a{block}"] + t[f"a_bias{block}"]
        u = np.maximum(u_pre, 0.0)
        trace.append((h, u_pre, u))
        h = h + config.residual_scale * (u @ t[f"b{block}"]) + t[f"b_bias{block}"]
    return h @ t["w_out"] + t["b_out"], (t, z_pre, h, trace)


def logits(config, params, x):
    return forward(config, params, x)[0]


def evaluate(config, params, x, labels):
    return float((logits(config, params, x).argmax(axis=1) == labels).mean())


def loss_and_grad(config, params, x, labels):
    """Mean cross-entropy plus L2 on the matrices, and its flat gradient."""
    scores, (t, z_pre, h_final, trace) = forward(config, params, x)
    batch, rows = x.shape[0], np.arange(x.shape[0])
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-log_probs[rows, labels].mean())
    d = np.exp(log_probs)
    d[rows, labels] -= 1.0
    d /= batch

    scale, g = config.residual_scale, {}
    g["w_out"], g["b_out"] = h_final.T @ d, d.sum(axis=0)
    dh = d @ t["w_out"].T
    for block in reversed(range(config.n_blocks)):
        h_in, u_pre, u = trace[block]
        g[f"b{block}"], g[f"b_bias{block}"] = scale * (u.T @ dh), dh.sum(axis=0)
        du = scale * (dh @ t[f"b{block}"].T) * (u_pre > 0)
        g[f"a{block}"], g[f"a_bias{block}"] = h_in.T @ du, du.sum(axis=0)
        dh = dh + du @ t[f"a{block}"].T
    dh = dh * (z_pre > 0)
    g["w_in"], g["b_in"] = x.T @ dh, dh.sum(axis=0)

    grad, penalty = np.zeros_like(params), 0.0
    views = unpack(config, grad)
    for name, tensor in t.items():
        views[name][...] = g[name]
        if tensor.ndim == 2 and config.weight_decay != 0.0:
            views[name][...] += config.weight_decay * tensor
            flat = tensor.ravel()
            penalty += 0.5 * config.weight_decay * float(flat @ flat)
    return loss + penalty, grad
