"""The ``grapple/run-report`` schema, its builder, validators, and the
progress heartbeat.

A run report holds the wall-clock timing split, the paper's Figure-9
component breakdown and a per-name ``spans`` section, all read from the
run's span table (:mod:`repro.obs.trace`); every
:class:`~repro.engine.stats.EngineStats` field (sectioned by its
``kind`` metadata, so new counters appear automatically); and the run's
histograms.  :func:`run_report` builds every one: ``repro check --metrics-json``
and the benchmark harness (via ``GrappleRun.run_report``), each
``repro serve`` edit fragment, and ``check --stats``, which prints a
text view of it.  CI validates them with ``python -m repro.obs validate``.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import fields

REPORT_SCHEMA = "grapple/run-report"
#: Version 2 added the optional ``telemetry`` section (the resource
#: sampler's gauge timeseries, ``repro.obs.profile``) and later the
#: optional ``scopes`` section (name resolution counters for
#: multi-file subjects, ``repro.sa.scopes``) and the ``spans`` section
#: (the run's span table); version-1 readers that ignore unknown
#: sections still parse a v2 document.
REPORT_VERSION = 2

#: Figure-9 component -> the spans charged to it when they run inside
#: a ``closure`` span (a closure-window span not listed is computation).
COMPONENTS = {
    "io": ("partition-load", "partition-save", "checkpoint", "retry"),
    "encode": ("enc-merge", "enc-reverse", "form-key", "decode"),
    "smt": ("smt-solve",),
    "compute": ("closure", "iteration", "pair-compute", "repartition"),
}

#: The spans outside the closure windows: a run and its frontend, the
#: phases around their closures, the checker and a serve scan (all
#: preprocessing).
PREPROCESSING = (
    "run", "parse", "sa-scopes", "transforms", "sa-fold", "types",
    "sa-dse", "icfet", "callgraph", "cloning", "fragments",
    "sa-relevance", "root-trees", "alias-phase", "dataflow-phase",
    "alias-graph", "dataflow-graph", "sa-compress", "engine-init",
    "engine-settle", "alias-index", "extract-report", "serve-scan",
    "incr-diff", "incr-join", "incr-retract", "state-write",
)

#: Span name -> its Figure-9 component inside a closure.
SPANS = {name: key for key, names in COMPONENTS.items() for name in names}

#: Every span the program records (validation reports which of these a
#: trace covers; split-free runs have no ``repartition`` spans).
KNOWN_SPANS = (*PREPROCESSING, *SPANS)

_TIMING_KEYS = ("preprocess_s", "computation_s", "total_s")


def breakdown(closure: dict) -> dict[str, float]:
    """Figure 9: the closure windows' span self times (``{name:
    (self_s, incl_s, calls)}``) summed by :data:`SPANS` component, as
    fractions of the closures' wall."""
    components = dict.fromkeys(COMPONENTS, 0.0)
    for name, (self_s, _, _) in closure.items():
        components[SPANS.get(name, "compute")] += self_s
    wall = closure.get("closure", (0.0, 0.0, 0))[1]
    return {key: s / wall if wall else 0.0 for key, s in components.items()}


def run_report(stats, warnings: int, *, spans: dict, closure: dict,
               histograms: dict, **sections) -> dict:
    """The ``grapple/run-report`` document for one ``EngineStats``.

    ``spans`` is the run's window of the span table (``{name: (self_s,
    incl_s, calls)}``, every span one root encloses), ``closure`` the
    closure windows within it and ``histograms`` what the run observed.
    ``total_s`` is the spans' summed self time, ``computation_s`` the
    closures' (the paper's Table 3 CT) and ``preprocess_s`` the rest;
    ``breakdown`` is :func:`breakdown` of ``closure``.
    ``sections`` are the optional top-level sections (``reduction``,
    ``scopes``, ``subject``, ``telemetry``, serve's ``edit``), appended
    in the order given and dropped when None.  Counters and gauges come
    straight from the stats fields' ``kind`` metadata (flags as 0/1
    gauges, plus the derived cache hit rate), sorted by name, floats
    rounded to 6 places.
    """
    counters: dict = {}
    gauges: dict = {"cache_hit_rate": stats.cache_hit_rate}
    for f in fields(stats):
        kind = f.metadata["kind"]
        value = getattr(stats, f.name)
        if kind == "counter":
            counters[f.name] = value
        elif kind == "gauge":
            gauges[f.name] = value
        elif kind == "flag":
            gauges[f.name] = int(value)
    total = sum(self_s for self_s, _, _ in spans.values())
    computation = closure.get("closure", (0.0, 0.0, 0))[1]
    report = {
        "schema": REPORT_SCHEMA,
        "version": REPORT_VERSION,
        "generated_unix": round(time.time(), 3),
        "timing": {
            "preprocess_s": round(total - computation, 6),
            "computation_s": round(computation, 6),
            "total_s": round(total, 6),
        },
        "breakdown": {
            key: round(share, 6) for key, share in breakdown(closure).items()
        },
        "spans": {
            name: {"self_s": round(self_s, 6), "incl_s": round(incl_s, 6),
                   "calls": calls}
            for name, (self_s, incl_s, calls) in sorted(spans.items())
        },
        "counters": _rounded(counters),
        "gauges": _rounded(gauges),
        "histograms": {
            name: hist.snapshot() for name, hist in sorted(histograms.items())
        },
        "warnings": warnings,
    }
    report.update(
        (key, value) for key, value in sections.items() if value is not None
    )
    return report


def _rounded(values: dict) -> dict:
    return {
        k: round(v, 6) if isinstance(v, float) else v
        for k, v in sorted(values.items())
    }


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
        for key in COMPONENTS:
            if not isinstance(breakdown.get(key), (int, float)):
                errors.append(f"breakdown.{key} is not a number")
    spans = report.get("spans")
    if spans is not None:  # absent in reports of older builds
        if not isinstance(spans, dict):
            errors.append("spans section is not an object")
        else:
            for name, row in spans.items():
                if not isinstance(row, dict) or not all(
                    _is_number(row.get(key))
                    for key in ("self_s", "incl_s", "calls")
                ):
                    errors.append(
                        f"spans.{name} needs numeric self_s, incl_s, calls"
                    )
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_histogram(name: str, hist) -> list[str]:
    errors: list[str] = []
    if not isinstance(hist, dict):
        return [f"histograms.{name} is not an object"]
    buckets = hist.get("buckets")
    counts = hist.get("counts")
    if not isinstance(buckets, list) or not isinstance(counts, list):
        return [f"histograms.{name}: buckets/counts missing"]
    if not all(_is_number(b) for b in buckets):
        return [f"histograms.{name}: buckets are not all numbers"]
    if not all(_is_int(c) for c in counts):
        return [f"histograms.{name}: counts are not all integers"]
    if list(buckets) != sorted(buckets):
        errors.append(f"histograms.{name}: buckets are not sorted")
    if len(counts) != len(buckets) + 1:
        errors.append(
            f"histograms.{name}: {len(counts)} counts for"
            f" {len(buckets)} buckets (want buckets + 1)"
        )
    if not _is_int(hist.get("count")):
        errors.append(f"histograms.{name}: count is not an integer")
    elif sum(counts) != hist["count"]:
        errors.append(
            f"histograms.{name}: bucket counts sum to {sum(counts)},"
            f" count says {hist['count']}"
        )
    if not _is_number(hist.get("sum")):
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
        if "name" in event and not isinstance(event["name"], str):
            errors.append(f"event {at}: name {event['name']!r} is not a string")
        for key in ("pid", "tid"):
            if key in event and not _is_int(event[key]):
                errors.append(
                    f"event {at} ({event.get('name')!r}):"
                    f" {key!r} is not an integer"
                )
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
