"""Deterministic, virtual-time observability: tracing and metrics.

The paper's argument rests on *when* things happen — switch points,
straggler onsets, tuning break-even — so this subsystem makes the
simulated timeline itself observable:

* :mod:`repro.obs.tracer` — nested spans and instant events keyed to
  the simulation clock, emitted as Chrome trace-event dicts that load
  directly in Perfetto.  The :data:`~repro.obs.tracer.NULL_TRACER`
  null object is the default everywhere, so the zero-copy training
  hot path pays nothing when tracing is off.
* :mod:`repro.obs.metrics` — a registry of counters, gauges and
  histograms snapshotted on a virtual-time interval (queue depth,
  pool utilization, staleness percentiles, overhead paid, policy-store
  hit rate).
* :mod:`repro.obs.export` — the Chrome trace-event writer/validator
  and the JSON metrics dump behind ``report fleet-trace``.

Everything here is *purely observational*: a tracer may read the
clock but never advances it, and never draws randomness — traced runs
are bit-identical to untraced ones (golden-hash gated).
"""

from repro._lazy import lazy_exports

__all__ = [
    "DEFAULT_METRICS_INTERVAL",
    "DETAIL_LEVELS",
    "NULL_METRICS",
    "NULL_TRACER",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NullTracer",
    "Tracer",
    "load_chrome_trace",
    "trace_categories",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_metrics_dump",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.obs.export": (
            "load_chrome_trace",
            "trace_categories",
            "validate_chrome_trace",
            "write_chrome_trace",
            "write_metrics_dump",
        ),
        "repro.obs.metrics": (
            "DEFAULT_METRICS_INTERVAL",
            "NULL_METRICS",
            "MetricsRegistry",
            "NullMetricsRegistry",
        ),
        "repro.obs.tracer": (
            "DETAIL_LEVELS",
            "NULL_TRACER",
            "NullTracer",
            "Tracer",
        ),
    },
)
