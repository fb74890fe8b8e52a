"""Host-time spans recorded from outside the program.

The ledger measures layers without touching ``src/``: a
:class:`SpanRecorder` replaces a layer's public callables with timing
wrappers, keeps one ``(name, start, end, parent)`` row per call in
memory and puts every original back on :meth:`SpanRecorder.restore`.
:func:`self_times` turns the rows into per-span-name self time
(duration minus the part covered by child spans) and call counts.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable

__all__ = ["SpanRecorder", "self_times"]


class SpanRecorder:
    """Wraps callables in timing spans; remembers how to undo it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: One ``[name, start, end, parent_index]`` row per call, in
        #: start order; ``parent_index`` is ``-1`` for a root span.
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        """Close span ``index`` (must be the innermost open span)."""
        self.spans[index][2] = self.clock()
        self._open.pop()

    def timed(self, name: str, fn: Callable, before: Callable | None = None):
        """``fn`` wrapped in a span called ``name``.

        ``before(args, kwargs)`` runs ahead of the span and may return
        an ``after(result)`` callback, which runs once the span is
        closed — with ``None`` when ``fn`` raised — so counters are
        read at the same boundary the time is.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = before(args, kwargs) if before is not None else None
            index = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(index)
                if after is not None:
                    after(result)

        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` and remember the original for restore."""
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_method(
        self, cls: type, attr: str, name: str, before: Callable | None = None
    ) -> None:
        """Span every call of ``cls.attr`` (as defined on ``cls`` itself)."""
        self.patch(cls, attr, self.timed(name, cls.__dict__[attr], before))

    def wrap_function(
        self,
        fn: Callable,
        name: str,
        before: Callable | None = None,
        package: str = "repro",
    ) -> None:
        """Span every call of module-level ``fn``.

        ``from m import fn`` copies the name into the importer, so the
        wrapper replaces ``fn`` in every loaded module of ``package``
        that holds it — patched where it is looked up, not only where
        it is defined.
        """
        wrapper = self.timed(name, fn, before)
        prefix = package + "."
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (
                module_name == package or module_name.startswith(prefix)
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back (latest patch first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def self_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``self_s``, ``total_s`` and ``calls``.

    A span's self time is its duration minus the durations of its
    direct children (spans nest, so children never overlap each other).
    ``total_s`` sums whole durations and therefore counts a recursive
    name more than once; self times always add up to the root spans'
    durations.
    """
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        row = table.setdefault(
            name, {"self_s": 0.0, "total_s": 0.0, "calls": 0}
        )
        row["self_s"] += (end - start) - child_time[index]
        row["total_s"] += end - start
        row["calls"] += 1
    return table
