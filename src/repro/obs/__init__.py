"""repro.obs -- structured observability for the engine.

Three layers, all zero-cost when disabled:

* :mod:`repro.obs.trace` -- span recording in Chrome ``trace_event``
  format (plus a compact JSONL fallback).  The engine and the I/O
  pipeline threads all record into one :class:`TraceRecorder`; load the
  exported file in ``chrome://tracing`` or https://ui.perfetto.dev.
* :mod:`repro.obs.metrics` -- counters, gauges, and fixed-bucket
  histograms in a :class:`MetricsRegistry`.
  :class:`~repro.engine.stats.EngineStats` exposes its whole field list
  as a registry view, and the engine records latency/size histograms
  (constraint-solve latency, per-pair edge counts, prefetch waits) into
  a registry carried on the stats object.
* :mod:`repro.obs.report` -- the ``grapple/run-report`` JSON schema
  (``repro check --metrics-json``), validators for report and trace
  files (``python -m repro.obs validate``), and the stderr progress
  :class:`Heartbeat`.

Two analysis layers sit on top (PR 8):

* :mod:`repro.obs.profile` -- the :class:`ResourceSampler` background
  gauge thread (RSS, cache occupancy, eligible pairs, GC pauses) whose
  timeseries ride in the run report's ``telemetry`` section under
  ``repro check --profile``;
* :mod:`repro.obs.analyze` -- the trace analyzer
  (``python -m repro.obs analyze``): per-stage wall attribution of the
  closure windows, emitted as a ``grapple/bottleneck-report``.
"""

from repro.obs.analyze import analyze_trace, format_bottleneck

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    engine_metrics,
)
from repro.obs.report import (
    Heartbeat,
    build_run_report,
    validate_run_report,
    validate_trace,
)
from repro.obs.profile import ResourceSampler
from repro.obs.trace import NULL_RECORDER, NullRecorder, TraceRecorder

__all__ = [
    "analyze_trace",
    "format_bottleneck",
    "ResourceSampler",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "engine_metrics",
    "Heartbeat",
    "build_run_report",
    "validate_run_report",
    "validate_trace",
    "NULL_RECORDER",
    "NullRecorder",
    "TraceRecorder",
]
