"""Virtual-time tracer emitting Chrome trace-event dicts.

Spans and instants are keyed to the *simulation* clock, not wall
time: a span's ``ts`` is the virtual second it started, scaled to the
microseconds Perfetto expects.  Because the tracer only ever reads
clocks handed to it — it never advances one and never draws
randomness — traced runs are bit-identical to untraced runs.

Three detail levels nest (each includes the previous):

``fleet``
    Scheduler passes, admission decisions, job lifecycle spans,
    allocation changes, preemption/resize cascades, search trials.
``job`` (default)
    Plus protocol-segment spans, switch/resize overhead spans,
    evaluation instants and controller interventions inside each job.
``update``
    Plus one span per worker update — BSP barriers and ASP pushes —
    reconstructed from the telemetry worker-duration log.

A fleet job traces through a *scoped* view (:meth:`Tracer.scoped`):
the same class, appending to the same event list, with the job's pid
and its admission time as offset.  Every event lands on the fleet
timeline when it is emitted, so the event list is in emission order,
not time order; viewers sort by ``ts``.

The :data:`NULL_TRACER` singleton is the system-wide default.  Every
instrumentation site either goes through a method that no-ops here or
is guarded by ``tracer.enabled`` / ``tracer.wants(level)``, so the
vectorized training hot path is untouched when tracing is off.
"""

from __future__ import annotations

import copy
from typing import Any

from repro.errors import ConfigurationError

DETAIL_LEVELS = ("fleet", "job", "update")

_DETAIL_RANK = {level: rank for rank, level in enumerate(DETAIL_LEVELS)}

# Virtual seconds -> trace-event microseconds.
_MICROS = 1e6


class NullTracer:
    """Do-nothing tracer: the default wherever a tracer is accepted.

    Every method is a no-op and ``enabled`` is False, so hot loops can
    guard optional work with a single attribute read.  ``scoped``
    returns ``self`` so call sites never branch on type.
    """

    enabled = False

    def wants(self, level: str) -> bool:
        return False

    def span(self, *args: Any, **kwargs: Any) -> None:
        pass

    def instant(self, *args: Any, **kwargs: Any) -> None:
        pass

    def counter(self, *args: Any, **kwargs: Any) -> None:
        pass

    def process_name(self, *args: Any, **kwargs: Any) -> None:
        pass

    def thread_name(self, *args: Any, **kwargs: Any) -> None:
        pass

    def scoped(self, pid: int, offset: float = 0.0) -> "NullTracer":
        return self

    @property
    def events(self) -> list[dict]:
        return []


NULL_TRACER = NullTracer()


class Tracer:
    """Collects Chrome trace-event dicts from a simulated timeline.

    Events accumulate in memory (a fleet run at the default detail is
    a few thousand events) and are written out once at the end by
    :func:`repro.obs.export.write_chrome_trace`.
    """

    enabled = True

    def __init__(self, detail: str = "job") -> None:
        if detail not in _DETAIL_RANK:
            raise ConfigurationError(
                f"unknown trace detail {detail!r}; expected one of {DETAIL_LEVELS}"
            )
        self.detail = detail
        self._rank = _DETAIL_RANK[detail]
        self._events: list[dict] = []
        # (pid, offset) of a scoped view; None leaves times bit-exact.
        self._scope: tuple[int, float] | None = None

    def wants(self, level: str) -> bool:
        """True when the configured detail includes ``level`` events."""
        return _DETAIL_RANK[level] <= self._rank

    def span(
        self,
        name: str,
        cat: str,
        start: float,
        duration: float,
        pid: int = 0,
        tid: int = 0,
        args: dict | None = None,
    ) -> None:
        """A complete ("X") event covering ``[start, start + duration)``."""
        if self._scope is not None:
            pid, offset = self._scope
            start = start + offset
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": start * _MICROS,
            "dur": max(duration, 0.0) * _MICROS,
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def instant(
        self,
        name: str,
        cat: str,
        t: float,
        pid: int = 0,
        tid: int = 0,
        args: dict | None = None,
    ) -> None:
        """A thread-scoped instant ("i") event at virtual time ``t``."""
        if self._scope is not None:
            pid, offset = self._scope
            t = t + offset
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "t",
            "ts": t * _MICROS,
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def counter(
        self,
        name: str,
        t: float,
        values: dict[str, float],
        pid: int = 0,
    ) -> None:
        """A counter ("C") sample; Perfetto plots one track per key."""
        if self._scope is not None:
            pid, offset = self._scope
            t = t + offset
        self._events.append(
            {
                "name": name,
                "cat": "metric",
                "ph": "C",
                "ts": t * _MICROS,
                "pid": pid,
                "tid": 0,
                "args": dict(values),
            }
        )

    def process_name(self, pid: int, label: str) -> None:
        if self._scope is not None:
            pid = self._scope[0]
        self._events.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )

    def thread_name(self, pid: int, tid: int, label: str) -> None:
        if self._scope is not None:
            pid = self._scope[0]
        self._events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": tid,
                "args": {"name": label},
            }
        )

    def scoped(self, pid: int, offset: float = 0.0) -> "Tracer":
        """A view that pins ``pid`` and shifts times by ``offset``.

        Training sessions run on job-relative clocks; the fleet hands
        each one a scoped view with ``offset = admission time`` so
        session-side emissions land on the fleet timeline untouched.
        The view is a shallow copy writing to this tracer's event
        list; scoping a view again adds the offsets.
        """
        view = copy.copy(self)
        if self._scope is not None:
            offset = self._scope[1] + offset
        view._scope = (pid, offset)
        return view

    @property
    def events(self) -> list[dict]:
        return self._events
