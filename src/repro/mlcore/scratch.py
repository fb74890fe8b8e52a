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
each call).  The arena holds only what a pass keeps alive: post-ReLU
activations (the backward pass takes its masks from them), the
softmax and backward windows, and one weight-decay window as wide as
the largest matrix; a forward-only pass (evaluation) gets its own,
much smaller view set.  Numpy-only leaf module: nothing here knows a
model or an engine.
"""

from __future__ import annotations

import math
import mmap

import numpy as np

__all__ = ["ARENA", "STACKS", "Arena", "PassViews", "StackLender"]

#: Window alignment: one cache line, and what the widest SIMD loads want.
_ALIGN = 64
#: The windows after ``h[]`` and ``u[]``, in order.
_TAIL = (
    "logits", "row_max", "shifted", "sum_exp", "log_probs", "dlogits",
    "dh", "du", "mm", "mask", "decay",
)


class PassViews:
    """The arena windows of one forward/backward pass.

    Shapes are ``(K, batch, ·)`` — a single-vector pass is ``K = 1`` —
    and every window is C-contiguous with the strides a dedicated
    allocation would have; ``decay`` is ``(K, largest matrix)``.
    ``rows``/``slices`` are the label-gather index vectors: read-only
    constants owned by the view set, not arena bytes.  A forward-only
    set fills only ``h``, ``u`` and ``logits``: three wide windows and
    ``logits``.
    """

    __slots__ = ("h", "u", *_TAIL, "rows", "slices")


class Arena:
    """Bytes for the pass currently running, grown by replacement to
    the largest pass seen.

    The bytes are a private anonymous mapping, not a malloc block:
    glibc serves numpy's large blocks from the brk heap once a bigger
    block has been freed (its mmap threshold follows the largest freed
    mapping), and a replaced arena would leave a hole there that the
    process keeps.  ``MAP_PRIVATE``, not Python's default
    ``MAP_SHARED``: a forked child must get its own copy on write.
    """

    #: View sets kept (oldest dropped first); they own two index
    #: vectors each and no other data.
    MAX_VIEW_SETS = 64

    def __init__(self):
        self._bytes = np.empty(0, dtype=np.uint8)
        self._view_sets: dict[tuple, PassViews] = {}

    def views(
        self, hidden, classes, blocks, k, batch, dtype, decay_width,
        params_dtype, forward_only=False,
    ) -> PassViews:
        """The view set of a ``k``-wide pass.

        ``dtype`` is the activation dtype; the weight-decay window is
        ``(k, decay_width)`` in ``params_dtype``.  ``forward_only``
        asks for the windows of a pass that keeps nothing for a backward.
        Valid until the next call, which may reuse or replace the bytes.
        """
        key = (
            hidden, classes, blocks, k, batch,
            dtype.char, decay_width, params_dtype.char, forward_only,
        )
        views = self._view_sets.get(key)
        if views is not None:
            return views
        wide = ((k, batch, hidden), dtype)
        narrow = ((k, batch, classes), dtype)
        column = ((k, batch, 1), dtype)
        if forward_only:
            specs = [wide] * 3 + [narrow]
        else:
            specs = (
                [wide] * (2 * blocks + 1)
                + [narrow, column, narrow, column, narrow, narrow]
                + [wide] * 3
                + [(wide[0], np.dtype(bool)), ((k, decay_width), params_dtype)]
            )
        offsets, cursor = [], 0
        for shape, kind in specs:
            offsets.append(cursor)
            size = math.prod(shape) * kind.itemsize
            cursor += -(-size // _ALIGN) * _ALIGN
        if cursor > self._bytes.nbytes:
            # View sets of the old block go with it (none is in use).
            self._view_sets.clear()
            self._bytes = np.frombuffer(
                mmap.mmap(-1, cursor, flags=mmap.MAP_PRIVATE), np.uint8
            )
        elif len(self._view_sets) >= self.MAX_VIEW_SETS:
            self._view_sets.pop(next(iter(self._view_sets)))
        # A mapping starts on a page, so every offset stays aligned.
        windows = [
            np.ndarray(shape, kind, self._bytes, offset)
            for (shape, kind), offset in zip(specs, offsets)
        ]
        if forward_only:  # h[] alternates between two windows, u[] is a third
            windows = [windows[i % 2] for i in range(blocks + 1)] + (
                [windows[2]] * blocks + windows[3:]
            )
        views = self._view_sets[key] = PassViews()
        views.h, views.u = windows[: blocks + 1], windows[blocks + 1 : 2 * blocks + 1]
        for name, window in zip(_TAIL, windows[2 * blocks + 1 :]):
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
