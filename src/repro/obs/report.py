"""The ``grapple/run-report`` schema, validators, and progress heartbeat.

A run report is the machine-readable counterpart of ``--stats``: one JSON
object holding the wall-clock timing split, the paper's Figure-9
component breakdown, every :class:`~repro.engine.stats.EngineStats`
field (exported through the stats' metrics-registry view, so new
counters appear automatically), and the engine's fixed-bucket histograms
when metrics collection was on.  ``repro check --metrics-json FILE``
writes one; the benchmark harness embeds one per measured run; CI
validates both artifacts with ``python -m repro.obs validate``.
"""

from __future__ import annotations

import math
import sys
import time

REPORT_SCHEMA = "grapple/run-report"
#: Version 2 added the optional ``telemetry`` section (the resource
#: sampler's gauge timeseries, ``repro.obs.profile``) and later the
#: optional ``scopes`` section (name resolution counters for
#: multi-file subjects, ``repro.sa.scopes``); version-1 readers that
#: ignore unknown sections still parse a v2 document.
REPORT_VERSION = 2

#: Span names a full engine trace is expected to draw from (validation
#: reports which of these a trace actually covers; split-free runs have
#: no ``repartition`` spans).
KNOWN_SPANS = (
    "closure", "iteration", "pair-compute",
    "prefetch", "spill", "repartition", "smt-solve",
    "sa-fold", "sa-dse", "sa-relevance", "sa-compress", "sa-scopes",
    "checkpoint", "retry",
    "incr-diff", "incr-join", "incr-retract",
)

_TIMING_KEYS = ("preprocess_s", "computation_s", "total_s")
_BREAKDOWN_KEYS = ("io", "encode", "smt", "compute")


def stats_sections(stats) -> dict:
    """The ``breakdown`` / ``counters`` / ``gauges`` / ``histograms``
    sections of a run report, from one ``EngineStats``."""
    snapshot = stats.registry_view().snapshot()

    def rounded(values: dict) -> dict:
        return {
            k: round(v, 6) if isinstance(v, float) else v
            for k, v in values.items()
        }

    return {
        "breakdown": {k: round(v, 6) for k, v in stats.breakdown().items()},
        "counters": rounded(snapshot["counters"]),
        "gauges": rounded(snapshot["gauges"]),
        "histograms": snapshot["histograms"],
    }


def build_run_report(
    run, subject: str | None = None, telemetry: dict | None = None
) -> dict:
    """Structured report for one :class:`~repro.analysis.pipeline.GrappleRun`.

    ``telemetry`` is the sampler's :meth:`timeseries
    <repro.obs.profile.ResourceSampler.timeseries>` document; profiling
    off means no sampler, no argument, and no ``telemetry`` key -- the
    report is byte-compatible with what version 1 produced.
    """
    report = {
        "schema": REPORT_SCHEMA,
        "version": REPORT_VERSION,
        "generated_unix": round(time.time(), 3),
        "timing": {
            "preprocess_s": round(run.preprocess_time, 6),
            "computation_s": round(run.computation_time, 6),
            "total_s": round(run.total_time, 6),
        },
        **stats_sections(run.stats),
        "warnings": len(run.report.warnings),
    }
    reduction = getattr(run, "reduction", None)
    if reduction is not None:
        report["reduction"] = reduction.as_dict()
    resolution = getattr(getattr(run, "compiled", None), "resolution", None)
    if resolution is not None:
        report["scopes"] = resolution.stats.as_dict()
    if subject is not None:
        report["subject"] = subject
    if telemetry is not None:
        report["telemetry"] = telemetry
    return report


# -- validation ----------------------------------------------------------------


def validate_run_report(report) -> list[str]:
    """Schema errors in a run report ([] = valid)."""
    errors: list[str] = []
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    if report.get("schema") != REPORT_SCHEMA:
        errors.append(
            f"schema is {report.get('schema')!r}, expected {REPORT_SCHEMA!r}"
        )
    version = report.get("version")
    if not isinstance(version, int):
        errors.append("version is not an integer")
    elif not 1 <= version <= REPORT_VERSION:
        errors.append(
            f"version {version} is not supported"
            f" (this reader knows 1..{REPORT_VERSION})"
        )
    timing = report.get("timing")
    if not isinstance(timing, dict):
        errors.append("timing section missing")
    else:
        for key in _TIMING_KEYS:
            if not isinstance(timing.get(key), (int, float)):
                errors.append(f"timing.{key} is not a number")
    breakdown = report.get("breakdown")
    if not isinstance(breakdown, dict):
        errors.append("breakdown section missing")
    else:
        for key in _BREAKDOWN_KEYS:
            if not isinstance(breakdown.get(key), (int, float)):
                errors.append(f"breakdown.{key} is not a number")
    for section in ("counters", "gauges"):
        values = report.get(section)
        if not isinstance(values, dict):
            errors.append(f"{section} section missing")
            continue
        for name, value in values.items():
            if not isinstance(value, (int, float)):
                errors.append(f"{section}.{name} is not a number")
    histograms = report.get("histograms")
    if not isinstance(histograms, dict):
        errors.append("histograms section missing")
    else:
        for name, hist in histograms.items():
            errors.extend(_validate_histogram(name, hist))
    if not isinstance(report.get("warnings"), int):
        errors.append("warnings is not an integer")
    reduction = report.get("reduction")
    if reduction is not None:  # optional: present when --reduce was on
        if not isinstance(reduction, dict):
            errors.append("reduction section is not an object")
        else:
            for name, value in reduction.items():
                if not isinstance(value, int):
                    errors.append(f"reduction.{name} is not an integer")
    scopes = report.get("scopes")
    if scopes is not None:  # optional: present for multi-file subjects
        if not isinstance(scopes, dict):
            errors.append("scopes section is not an object")
        else:
            for name, value in scopes.items():
                if not isinstance(value, int):
                    errors.append(f"scopes.{name} is not an integer")
    telemetry = report.get("telemetry")
    if telemetry is not None:  # optional: present when --profile was on
        errors.extend(_validate_telemetry(telemetry))
    return errors


def _validate_telemetry(telemetry) -> list[str]:
    """Schema errors in a run report's ``telemetry`` section."""
    if not isinstance(telemetry, dict):
        return ["telemetry section is not an object"]
    errors: list[str] = []
    interval = telemetry.get("interval_s")
    if not isinstance(interval, (int, float)):
        errors.append("telemetry.interval_s is not a number")
    elif not math.isfinite(interval):
        # Python's json writes and reads Infinity/NaN; JSON does not.
        errors.append(f"telemetry.interval_s is not finite ({interval})")
    if not isinstance(telemetry.get("samples"), int):
        errors.append("telemetry.samples is not an integer")
    series = telemetry.get("coordinator")
    if not isinstance(series, dict):
        errors.append("telemetry.coordinator is not an object")
        return errors
    t_s = series.get("t_s")
    gauges = series.get("series")
    if not isinstance(t_s, list) or not isinstance(gauges, dict):
        errors.append("telemetry.coordinator: t_s/series missing")
        return errors
    for name, column in gauges.items():
        if not isinstance(column, list) or len(column) != len(t_s):
            errors.append(
                f"telemetry.coordinator.series.{name}: column does not"
                f" align with t_s ({len(t_s)} timestamps)"
            )
    watch = telemetry.get("gc")
    if isinstance(watch, dict):
        # Absent in older reports; null when the sampler never started.
        automatic = watch.get("automatic")
        if automatic is not None and not isinstance(automatic, bool):
            errors.append("telemetry.gc.automatic is not a boolean")
    return errors


def _validate_histogram(name: str, hist) -> list[str]:
    errors: list[str] = []
    if not isinstance(hist, dict):
        return [f"histograms.{name} is not an object"]
    buckets = hist.get("buckets")
    counts = hist.get("counts")
    if not isinstance(buckets, list) or not isinstance(counts, list):
        return [f"histograms.{name}: buckets/counts missing"]
    if list(buckets) != sorted(buckets):
        errors.append(f"histograms.{name}: buckets are not sorted")
    if len(counts) != len(buckets) + 1:
        errors.append(
            f"histograms.{name}: {len(counts)} counts for"
            f" {len(buckets)} buckets (want buckets + 1)"
        )
    if not isinstance(hist.get("count"), int):
        errors.append(f"histograms.{name}: count is not an integer")
    elif sum(counts) != hist["count"]:
        errors.append(
            f"histograms.{name}: bucket counts sum to {sum(counts)},"
            f" count says {hist['count']}"
        )
    if not isinstance(hist.get("sum"), (int, float)):
        errors.append(f"histograms.{name}: sum is not a number")
    return errors


def validate_trace(trace) -> list[str]:
    """Schema errors in a Chrome-trace object ([] = valid).

    Accepts the ``{"traceEvents": [...]}`` object form or a bare event
    list (the parsed JSONL fallback).
    """
    if isinstance(trace, dict):
        events = trace.get("traceEvents")
        if not isinstance(events, list):
            return ["traceEvents is missing or not a list"]
    elif isinstance(trace, list):
        events = trace
    else:
        return ["trace is neither an object nor an event list"]
    errors: list[str] = []
    for at, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event {at} is not an object")
            continue
        for key in ("ph", "name", "pid", "tid"):
            if key not in event:
                errors.append(f"event {at} ({event.get('name')!r}): no {key!r}")
        if event.get("ph") == "X":
            for key in ("ts", "dur"):
                if not isinstance(event.get(key), (int, float)):
                    errors.append(
                        f"event {at} ({event.get('name')!r}):"
                        f" {key!r} is not a number"
                    )
        if len(errors) > 20:
            errors.append("... (truncated)")
            break
    return errors


def trace_coverage(trace) -> dict:
    """Summary of a trace: span names, pids, and event count."""
    events = trace.get("traceEvents", []) if isinstance(trace, dict) else trace
    spans = [e for e in events if isinstance(e, dict) and e.get("ph") == "X"]
    names = sorted({e["name"] for e in spans})
    return {
        "events": len(events),
        "spans": len(spans),
        "span_names": names,
        "known_spans_covered": [n for n in KNOWN_SPANS if n in names],
        "pids": sorted({e["pid"] for e in spans}),
    }


# -- progress heartbeat --------------------------------------------------------


class Heartbeat:
    """Periodic one-line progress report on stderr.

    The engine calls :meth:`maybe_beat` once per processed pair; a line
    is emitted at most every ``interval`` seconds, so the cost is one
    clock read per call.
    """

    def __init__(self, interval: float, stream=None, clock=time.monotonic):
        self.interval = interval
        self.stream = stream
        self.clock = clock
        self.beats = 0
        self._started = clock()
        self._next = self._started + interval

    def maybe_beat(self, stats, store, scheduler) -> bool:
        now = self.clock()
        if now < self._next:
            return False
        self._next = now + self.interval
        self.beats += 1
        eligible = scheduler.eligible_count()
        done = stats.pairs_processed
        edges = store.total_edges()
        occupancy = store.cache_occupancy()
        line = (
            f"[grapple +{now - self._started:6.1f}s] pairs {done} done"
            f" / {eligible} eligible · edges {edges}"
            f" · budget {occupancy:.0%} resident"
            f" · solves {stats.constraints_solved}"
        )
        print(
            line,
            file=self.stream if self.stream is not None else sys.stderr,
            flush=True,
        )
        return True
