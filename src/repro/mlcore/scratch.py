"""Process-wide training scratch: one kernel arena, one set of lent stacks.

Scratch is memory a computation writes before it reads and nobody
reads afterwards, so it belongs to the *process*, not to the model,
trainer or job that happens to run the computation: a fleet that keeps
twelve paused runs alive needs one set of forward/backward buffers,
not twelve.  This module is the only holder of such memory.

Sharing the :class:`Arena` is safe because no two passes are ever in
flight at once (the simulator is single-threaded and passes never
nest) and nothing arena-backed escapes a pass: ``logits()`` copies,
``evaluate`` returns a float, gradients land in caller buffers.  The
:class:`StackLender` is borrow/return, not a singleton buffer: a
borrower owns what it holds until it gives it back, so two live
borrowers never share a stack.  Both are value-stable to share because
every byte is written before it is read
(``tests/distsim/test_kernel_primitives.py`` poisons all of it before
each call).  Numpy-only leaf module: nothing here knows a model or an
engine.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ARENA", "STACKS", "Arena", "PassViews", "StackLender"]

#: Window alignment: one cache line, and what the widest SIMD loads want.
_ALIGN = 64
#: The windows after ``z_pre``, ``h[]``, ``u_pre[]`` and ``u[]``, in order.
_TAIL = (
    "logits", "row_max", "shifted", "sum_exp", "log_probs", "dlogits",
    "dh", "du", "mm", "mask", "decay",
)


class PassViews:
    """The arena windows of one forward/backward pass.

    Shapes are ``(K, batch, ·)`` — a single-vector pass is ``K = 1`` —
    and every window is C-contiguous with the strides a dedicated
    allocation would have.
    ``rows``/``slices`` are the label-gather index vectors: read-only
    constants owned by the view set, not arena bytes.
    """

    __slots__ = ("z_pre", "h", "u_pre", "u", *_TAIL, "rows", "slices")


class Arena:
    """Bytes for the forward/backward pass currently running, grown by
    replacement to the largest pass seen."""

    #: View sets kept (oldest dropped first); they own two index
    #: vectors each and no other data.
    MAX_VIEW_SETS = 64

    def __init__(self):
        self._bytes = np.empty(0, dtype=np.uint8)
        self._view_sets: dict[tuple, PassViews] = {}

    def views(
        self, hidden, classes, blocks, k, batch, dtype, n_params, params_dtype
    ) -> PassViews:
        """The view set of a ``k``-wide pass.

        ``dtype`` is the activation dtype; the weight-decay scratch is
        one more window, ``(k, n_params)`` in ``params_dtype``.
        Valid until the next call, which may reuse or replace the bytes.
        """
        key = (
            hidden, classes, blocks, k, batch,
            dtype.char, n_params, params_dtype.char,
        )
        views = self._view_sets.get(key)
        if views is not None:
            return views
        wide = ((k, batch, hidden), dtype)
        narrow = ((k, batch, classes), dtype)
        column = ((k, batch, 1), dtype)
        # Forward windows first: a forward-only call (evaluation, the
        # largest batch of most runs) then touches one compact prefix.
        specs = (
            [wide] * (2 + 3 * blocks)
            + [narrow, column, narrow, column, narrow, narrow]
            + [wide] * 3
            + [(wide[0], np.dtype(bool)), ((k, n_params), params_dtype)]
        )
        offsets, cursor = [], 0
        for shape, kind in specs:
            offsets.append(cursor)
            size = math.prod(shape) * kind.itemsize
            cursor += -(-size // _ALIGN) * _ALIGN
        if cursor + _ALIGN > self._bytes.nbytes:
            # View sets of the old block go with it (none is in use).
            self._view_sets.clear()
            self._bytes = np.empty(cursor + _ALIGN, dtype=np.uint8)
        elif len(self._view_sets) >= self.MAX_VIEW_SETS:
            self._view_sets.pop(next(iter(self._view_sets)))
        start = -self._bytes.__array_interface__["data"][0] % _ALIGN
        z_pre, *rest = (
            np.ndarray(shape, kind, self._bytes, start + offset)
            for (shape, kind), offset in zip(specs, offsets)
        )
        views = self._view_sets[key] = PassViews()
        views.z_pre, views.h = z_pre, rest[: blocks + 1]
        views.u_pre = rest[blocks + 1 : 2 * blocks + 1]
        views.u = rest[2 * blocks + 1 : 3 * blocks + 1]
        for name, window in zip(_TAIL, rest[3 * blocks + 1 :]):
            setattr(views, name, window)
        views.rows = np.arange(batch)
        views.slices = np.arange(k).reshape(k, 1)
        return views


class StackLender:
    """Lends flat ``(rows, width)`` stacks, one borrower at a time each."""

    #: Returned stacks kept for the next borrower: a staging matrix and
    #: four gradient stacks, the most a batcher holds in practice.
    KEEP = 5

    def __init__(self):
        self._free: list[np.ndarray] = []

    def borrow(self, rows: int, width: int, dtype: np.dtype) -> np.ndarray:
        """A C-contiguous ``(rows, width)`` stack, contents undefined.

        Served from the most recently returned stack that is large
        enough; otherwise a new one is allocated *in place of* a
        returned smaller one, so the kept set converges on the largest
        size seen.
        """
        nbytes = rows * width * dtype.itemsize
        free = self._free
        for index in reversed(range(len(free))):
            if free[index].nbytes >= nbytes:
                raw = free.pop(index)
                break
        else:
            del free[:1]
            raw = np.empty(nbytes, dtype=np.uint8)
        return raw[:nbytes].view(dtype).reshape(rows, width)

    def give_back(self, stack: np.ndarray) -> None:
        """Return a borrowed stack; the caller drops its references."""
        if len(self._free) < self.KEEP:
            self._free.append(stack.base)


#: The process's arena and lender.
ARENA = Arena()
STACKS = StackLender()
