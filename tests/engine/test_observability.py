"""Tests for the observability layer (repro.obs + its engine hooks).

Covers the satellite guarantees: reentrancy-safe timing(), an engine
trace that covers every span kind, metrics that agree with the
counters, zero entries when disabled, and the run-report/trace schemas.
(Cross-phase aggregation derived from the field list is pinned in
``test_stats_merge.py``.)
"""

import io
import json
import time

import pytest

from repro import EngineOptions, Grapple, GrappleOptions, default_checkers
from repro.checkers.checker import pack_checkers
from repro.engine.stats import EngineStats
from repro.obs.metrics import Histogram
from repro.obs.report import (
    Heartbeat,
    trace_coverage,
    validate_run_report,
    validate_trace,
)
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.workloads import build_subject
from repro.workloads.multifile import build_multifile_subject


def _run(source, trace=None, metrics=False, heartbeat=None,
         budget=4 << 20):
    options = GrappleOptions(
        engine=EngineOptions(
            memory_budget=budget,
            trace=trace,
            metrics=metrics,
            heartbeat=heartbeat,
        )
    )
    fsms = [c.fsm for c in default_checkers()]
    return Grapple(source, fsms, options).run()


# -- histograms across phases -------------------------------------------------


def test_merge_folds_metrics_registries():
    a = EngineStats()
    b = EngineStats()
    b.ensure_metrics()["solve_latency_s"].observe(0.002)
    a.merge_phase(b)  # a has no histograms: starts its own
    assert a.metrics["solve_latency_s"].count == 1
    c = EngineStats()
    c.ensure_metrics()["solve_latency_s"].observe(0.004)
    a.merge_phase(c)  # both present: exact histogram merge
    assert a.metrics["solve_latency_s"].count == 2
    assert b.metrics["solve_latency_s"].count == 1  # clone, not alias


# -- reentrant timing ----------------------------------------------------------


def test_timing_nested_spans_attribute_self_time_only():
    stats = EngineStats()
    with stats.timing("compute_time"):
        time.sleep(0.02)
        with stats.timing("io_time"):
            time.sleep(0.03)
        with stats.timing("smt_time"):
            time.sleep(0.01)
    # Inner elapsed must not double-count into the outer component.
    assert stats.io_time >= 0.03
    assert stats.smt_time >= 0.01
    assert stats.compute_time >= 0.015
    assert stats.compute_time < 0.035, (
        "nested spans leaked into the enclosing component"
    )
    total = stats.compute_time + stats.io_time + stats.smt_time
    assert 0.055 <= total < 0.09


def test_timing_doubly_nested():
    stats = EngineStats()
    with stats.timing("compute_time"):
        with stats.timing("io_time"):
            with stats.timing("encode_time"):
                time.sleep(0.02)
    assert stats.encode_time >= 0.02
    assert stats.io_time < 0.01
    assert stats.compute_time < 0.01


# -- trace recorder ------------------------------------------------------------


def test_trace_export_formats(tmp_path):
    rec = TraceRecorder()
    with rec.span("closure", partitions=2):
        pass
    chrome = tmp_path / "t.json"
    jsonl = tmp_path / "t.jsonl"
    rec.export(str(chrome))
    rec.export(str(jsonl))
    doc = json.loads(chrome.read_text())
    assert validate_trace(doc) == []
    lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert validate_trace(lines) == []
    assert any(e["ph"] == "X" and e["name"] == "closure" for e in lines)


def test_null_recorder_records_nothing():
    assert NULL_RECORDER.enabled is False
    with NULL_RECORDER.span("anything"):
        pass
    NULL_RECORDER.end("x", NULL_RECORDER.begin())
    NULL_RECORDER.instant("y")
    NULL_RECORDER.note_thread("z")
    assert not hasattr(NULL_RECORDER, "events")


# -- engine integration --------------------------------------------------------


def test_engine_trace_covers_span_kinds():
    source = build_subject("zookeeper", scale=0.4).source
    recorder = TraceRecorder()
    run = _run(source, trace=recorder, budget=256 << 10)
    names = recorder.span_names()
    assert {"closure", "iteration", "pair-compute", "smt-solve"} <= names
    assert {"prefetch", "spill", "repartition"} <= names, (
        "I/O and repartition spans missing -- budget did not stress store"
    )
    assert validate_trace(recorder.chrome_trace()) == []
    assert run.report.warnings


def test_disabled_observability_adds_nothing():
    source = build_subject("zookeeper", scale=0.3).source
    run = _run(source, trace=None, metrics=False)
    assert run.stats.metrics is None


def test_metrics_agree_with_counters():
    source = build_subject("zookeeper", scale=0.4).source
    run = _run(source, metrics=True)
    stats = run.stats
    hists = stats.metrics
    # Histogram observation counts must equal the independently kept
    # scalar counters -- one observation per solver invocation / pair.
    assert hists["solve_latency_s"].count == stats.constraints_solved
    assert hists["pair_compute_s"].count == stats.pairs_processed
    assert hists["pair_new_edges"].count == stats.pairs_processed
    assert hists["pair_new_edges"].total == stats.new_edges
    for hist in hists.values():
        assert sum(hist.counts) == hist.count


# -- histograms ----------------------------------------------------------------


def test_histogram_bucketing_and_merge():
    h = Histogram("lat", (0.001, 0.01, 0.1))
    for v in (0.0005, 0.001, 0.005, 0.05, 5.0):
        h.observe(v)
    assert h.counts == [2, 1, 1, 1]  # <=0.001, <=0.01, <=0.1, overflow
    assert h.count == 5
    other = Histogram("lat", (0.001, 0.01, 0.1))
    other.observe(0.02)
    h.merge(other)
    assert h.counts == [2, 1, 2, 1]
    mismatched = Histogram("lat", (0.5, 1.0))
    with pytest.raises(ValueError):
        h.merge(mismatched)


# -- run report & heartbeat ----------------------------------------------------


def test_run_report_schema_roundtrip():
    source = build_subject("zookeeper", scale=0.3).source
    run = _run(source, metrics=True)
    report = run.run_report(subject="zookeeper")
    assert validate_run_report(report) == []
    assert report["subject"] == "zookeeper"
    assert report["counters"]["pairs_processed"] == run.stats.pairs_processed
    assert report["gauges"]["edges_after"] == run.stats.edges_after
    # What the memory budget does not count: the two phases' resident
    # encoding tables.
    assert report["gauges"]["encodings"] == sum(
        len(phase.engine_result.store.table)
        for phase in (run.alias_phase, run.dataflow_phase)
    ) > 0
    assert report["histograms"]["solve_latency_s"]["count"] == (
        run.stats.constraints_solved
    )
    # Survives a JSON round trip unchanged.
    assert validate_run_report(json.loads(json.dumps(report))) == []
    broken = json.loads(json.dumps(report))
    broken["histograms"]["solve_latency_s"]["counts"].append(1)
    assert validate_run_report(broken)


def _feasibility_counters(stats):
    return (stats.constraint_queries, stats.cache_hits, stats.group_hits,
            stats.feasibility_groups, stats.constraints_decoded,
            stats.constraints_solved)


def test_constraints_are_decoded_only_to_be_solved():
    """Feasibility queries are keyed by their encodings' structure; a
    constraint is materialised only for a query that then goes to the
    solver, and the counter reaches the run report."""
    source = build_subject("zookeeper", scale=1.0).source
    run = Grapple(source, [c.fsm for c in default_checkers()]).run()
    stats = run.stats
    assert 0 < stats.constraints_decoded <= stats.constraints_solved
    assert stats.constraints_decoded < stats.group_hits
    # Captured from the commit that still had a tuple-keyed LRU and a
    # decode memo between the verdict cache and the solver, less the
    # compositions per-cell cursors stopped retrying.  Every query they
    # removed was a verdict-cache hit: queries and hits fall by the same
    # amount, and what was grouped, decoded and solved does not move.
    retried = 1365
    assert _feasibility_counters(stats) == (
        18429 - retried, 9256 - retried, 8655, 518, 518, 518
    )
    gateway = Grapple(
        build_multifile_subject("gateway", scale=1.0).sources,
        [c.fsm for c in pack_checkers()],
    ).run()
    retried = 22
    assert _feasibility_counters(gateway.stats) == (
        496 - retried, 128 - retried, 346, 22, 22, 22
    )
    report = run.run_report()
    assert report["counters"]["constraints_decoded"] == (
        stats.constraints_decoded
    )
    # Optional, like every counter: older reports lack it and stay valid.
    del report["counters"]["constraints_decoded"]
    assert validate_run_report(report) == []


def test_trace_coverage_summary():
    rec = TraceRecorder()
    with rec.span("closure"):
        pass
    with rec.span("not-a-known-span"):
        pass
    cov = trace_coverage(rec.chrome_trace())
    assert cov["known_spans_covered"] == ["closure"]
    assert "not-a-known-span" in cov["span_names"]
    assert cov["pids"] == [rec.pid]


def test_heartbeat_is_interval_gated():
    class _Store:
        def total_edges(self):
            return 42

        def cache_occupancy(self):
            return 0.5

    class _Scheduler:
        def eligible_count(self):
            return 7

    now = [0.0]
    out = io.StringIO()
    hb = Heartbeat(10.0, stream=out, clock=lambda: now[0])
    stats = EngineStats(pairs_processed=3, constraints_solved=9)
    assert hb.maybe_beat(stats, _Store(), _Scheduler()) is False
    now[0] = 10.5
    assert hb.maybe_beat(stats, _Store(), _Scheduler()) is True
    now[0] = 11.0  # within the next interval: suppressed
    assert hb.maybe_beat(stats, _Store(), _Scheduler()) is False
    assert hb.beats == 1
    line = out.getvalue()
    assert "pairs 3 done / 7 eligible" in line
    assert "edges 42" in line
    assert "budget 50% resident" in line


def test_run_report_scopes_section_for_multifile_sources():
    sources = {
        "net.mini": """
        module net;

        func open_conn(x) {
            var s = new Socket();
            s.connect(x);
            return s;
        }
        """,
        "app.mini": """
        import net;

        func main(x) {
            var a = net.open_conn(x);
            return a;
        }
        """,
    }
    run = _run(sources, metrics=True)
    report = run.run_report(subject="multifile")
    assert validate_run_report(report) == []
    scopes = report["scopes"]
    assert scopes["files"] == 2
    assert scopes["scope_resolutions"] == 1
    assert scopes["unresolved_refs"] == 0
    # Single-file string sources never grew a scopes section.
    single = _run(
        sources["net.mini"].replace("module net;", ""), metrics=True
    ).run_report()
    assert "scopes" not in single
    assert validate_run_report(single) == []
