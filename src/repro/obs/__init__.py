"""repro.obs -- structured observability for the engine.

One timer, always on:

* :mod:`repro.obs.trace` -- the run's one :class:`TraceRecorder`.
  Every timed region of a run is a named span on it.  Always, a span
  adds its self and inclusive seconds and a call to its name's row in
  its thread's table, and feeds the engine's histograms; only under
  ``--trace`` (or a recorder made with ``chrome=True``) does it also
  append a Chrome ``trace_event`` span for ``chrome://tracing`` or
  https://ui.perfetto.dev.
* :mod:`repro.obs.metrics` -- the fixed-bucket histograms those spans
  feed: constraint-solve latency, per-pair compute time and edge
  counts, prefetch waits.
* :mod:`repro.obs.report` -- the ``grapple/run-report`` JSON schema and
  its one builder, :func:`run_report`: the timing split, the Figure-9
  breakdown and the ``spans`` section read the span table, and the
  counters and gauges every :class:`~repro.engine.stats.EngineStats`
  field by its ``kind`` metadata.  ``repro check --metrics-json``,
  ``check --stats`` (a text view of the report) and every ``repro
  serve`` edit fragment come from it.  Also validators for report and
  trace files (``python -m repro.obs validate``) and the stderr
  progress :class:`Heartbeat`.

Two analysis layers sit on top:

* :mod:`repro.obs.profile` -- the :class:`ResourceSampler` background
  gauge thread (RSS, cache occupancy, eligible pairs, GC pauses) whose
  timeseries ride in the run report's ``telemetry`` section under
  ``repro check --profile``;
* :mod:`repro.obs.analyze` -- the trace analyzer
  (``python -m repro.obs analyze``): span self times over the closure
  windows of a Chrome trace, emitted as a ``grapple/bottleneck-report``.
"""

from repro.obs.analyze import analyze_trace, format_bottleneck

from repro.obs.metrics import Histogram, engine_metrics
from repro.obs.report import (
    Heartbeat,
    run_report,
    validate_run_report,
    validate_trace,
)
from repro.obs.profile import ResourceSampler
from repro.obs.trace import TraceRecorder

__all__ = [
    "analyze_trace",
    "format_bottleneck",
    "ResourceSampler",
    "Histogram",
    "engine_metrics",
    "Heartbeat",
    "run_report",
    "validate_run_report",
    "validate_trace",
    "TraceRecorder",
]
