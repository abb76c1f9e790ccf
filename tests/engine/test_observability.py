"""Tests for the observability layer (repro.obs + its engine hooks).

Covers the satellite guarantees: spans that keep self time, a traced
run whose spans cover every name the benchmark harness reads, an
untraced run that fills the same span table without events, histograms
that agree with the counters, and the run-report/trace schemas.
(Cross-phase aggregation derived from the field list is pinned in
``test_stats_merge.py``.)
"""

import importlib.util
import io
import json
import os
import sys
import time

import pytest

from repro import EngineOptions, Grapple, GrappleOptions, default_checkers
from repro.checkers.checker import pack_checkers
from repro.engine.stats import EngineStats
from repro.obs.metrics import Histogram
from repro.obs.report import (
    KNOWN_SPANS,
    Heartbeat,
    trace_coverage,
    validate_run_report,
    validate_trace,
)
from repro.obs.trace import TraceRecorder
from repro.serve import ServeEngine
from repro.workloads import build_subject
from repro.workloads.multifile import build_multifile_subject

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
_spec = importlib.util.spec_from_file_location(
    "harness_layers", os.path.join(ROOT, "benchmarks", "harness", "layers.py")
)
harness_layers = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = harness_layers  # its dataclasses look it up
_spec.loader.exec_module(harness_layers)


def _run(source, trace=None, heartbeat=None, budget=4 << 20):
    options = GrappleOptions(
        engine=EngineOptions(
            memory_budget=budget,
            trace=trace,
            heartbeat=heartbeat,
        ),
    )
    fsms = [c.fsm for c in default_checkers()]
    return Grapple(source, fsms, options).run()


def _events(recorder) -> list:
    return [e for e in recorder.events if e["ph"] == "X"]


# -- histograms across windows ------------------------------------------------


def test_merge_folds_metrics_registries():
    """A window reads what the histograms gained since it opened, as
    copies; copies of two windows merge exactly."""
    rec = TraceRecorder(chrome=False)
    with rec.span("smt-solve"):
        pass
    window = rec.window()
    with rec.span("smt-solve"):
        pass
    first = window.histograms()["solve_latency_s"]
    assert first.count == 1  # the span before the window is not in it
    window = rec.window()
    with rec.span("smt-solve"):
        pass
    second = window.histograms()["solve_latency_s"]
    first.merge(second)
    assert first.count == 2
    assert second.count == 1  # copy, not alias
    assert rec.histograms["solve_latency_s"].count == 3


# -- self time -----------------------------------------------------------------


def test_timing_nested_spans_attribute_self_time_only():
    rec = TraceRecorder(chrome=False)
    window = rec.window()
    with rec.span("outer"):
        time.sleep(0.02)
        with rec.span("load"):
            time.sleep(0.03)
        with rec.span("solve"):
            time.sleep(0.01)
    spans = window.spans()
    compute, io_, smt = (spans[name][0] for name in ("outer", "load", "solve"))
    # Inner elapsed must not double-count into the outer span.
    assert io_ >= 0.03
    assert smt >= 0.01
    assert compute >= 0.015
    assert compute < 0.035, "nested spans leaked into the enclosing span"
    assert spans["outer"][1] >= 0.06  # inclusive keeps them
    total = compute + io_ + smt
    assert 0.055 <= total < 0.09


def test_timing_doubly_nested():
    rec = TraceRecorder(chrome=False)
    window = rec.window()
    with rec.span("outer"):
        with rec.span("load"):
            with rec.span("inner"):
                time.sleep(0.02)
    spans = window.spans()
    assert spans["inner"][0] >= 0.02
    assert spans["load"][0] < 0.01
    assert spans["outer"][0] < 0.01


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
    """Without ``chrome`` a recorder keeps the span table, no events."""
    rec = TraceRecorder(chrome=False)
    window = rec.window()
    with rec.span("anything"):
        pass
    assert rec.events == []
    assert window.spans()["anything"][2] == 1
    assert rec.chrome_trace()["otherData"]["dropped_events"] == 0


# -- engine integration --------------------------------------------------------


def test_engine_trace_covers_span_kinds(tmp_path):
    """Every program span the benchmark harness reads
    (``benchmarks/harness/layers.py::PROGRAM_SPANS``) is emitted: by a
    check under a budget that makes the store split, evict and hold
    pending rows, and by a served edit.  Only a reversed ``fs`` edge (or
    a composition a mid-visit split left behind) can land in an unloaded
    partition, so the check runs on hadoop, which stores into fields
    (zookeeper does not, and has pending rows at no budget).  The
    harness's table still names the deleted prefetch reader's and spill
    writer's spans; no run emits those."""
    source = build_subject("hadoop", scale=0.5).source
    recorder = TraceRecorder()
    run = _run(source, trace=recorder, budget=16 << 10)
    assert run.stats.pending_rows > 0
    names = {e["name"] for e in _events(recorder)}
    assert validate_trace(recorder.chrome_trace()) == []
    assert run.report.warnings
    ws = tmp_path / "ws"
    ws.mkdir()
    for path, text in build_multifile_subject("gateway", scale=1).sources.items():
        (ws / path).write_text(text)
    served = TraceRecorder()
    engine = ServeEngine(str(ws), str(tmp_path / "wd"),
                         [c.fsm for c in pack_checkers()], trace=served)
    engine.scan()
    path = next(p for p in os.listdir(ws) if p.endswith(".mini"))
    engine.edit(path, (ws / path).read_text() + "\nfunc pad() { return; }\n")
    names |= {e["name"] for e in _events(served)}
    gone = {"prefetch", "spill"}
    expected = set(harness_layers.PROGRAM_SPANS) - gone
    assert expected <= names, sorted(expected - names)
    assert names <= set(KNOWN_SPANS), sorted(names - set(KNOWN_SPANS))
    assert not gone & (names | set(KNOWN_SPANS))


def test_disabled_observability_adds_nothing():
    """A run handed no recorder times itself all the same: it fills the
    span table a traced run fills, and records no Chrome events."""
    source = build_subject("zookeeper", scale=0.3).source
    traced = TraceRecorder()
    names = set(_run(source, trace=traced).spans)
    assert names == {e["name"] for e in _events(traced)}
    untraced = TraceRecorder(chrome=False)
    run = _run(source, trace=untraced)
    assert set(run.spans) == names
    assert untraced.events == []
    assert set(_run(source).spans) == names  # the run makes its own


def test_run_time_splits_at_the_closures():
    """``computation_s`` is the closure spans (Table 3's CT) and
    ``preprocess_s`` the rest of ``total_s``; no reduction pass runs
    inside a closure, and the span table sums to the total."""
    source = build_subject("zookeeper", scale=0.3).source
    run = _run(source)
    timing = run.run_report()["timing"]
    assert timing["preprocess_s"] + timing["computation_s"] == pytest.approx(
        timing["total_s"], abs=2e-6
    )
    assert timing["computation_s"] == pytest.approx(
        run.closure_spans["closure"][1], abs=1e-6
    )
    assert not [name for name in run.closure_spans if name.startswith("sa-")]
    assert sum(row[0] for row in run.spans.values()) == pytest.approx(
        run.total_time
    )


def test_type_inference_is_not_timed_as_dse():
    recorder = TraceRecorder()
    _run(build_subject("zookeeper", scale=0.3).source, trace=recorder)
    spans = {e["name"]: e for e in _events(recorder)
             if e["name"] in ("types", "sa-dse")}
    types, dse = spans["types"], spans["sa-dse"]
    assert types["ts"] + types["dur"] <= dse["ts"]  # one after the other


def test_metrics_agree_with_counters():
    source = build_subject("zookeeper", scale=0.4).source
    run = _run(source)
    stats = run.stats
    hists = run.histograms
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
    run = _run(source)
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
    spans = report["spans"]
    assert sum(row["self_s"] for row in spans.values()) == pytest.approx(
        report["timing"]["total_s"], abs=1e-4
    )
    broken = json.loads(json.dumps(report))
    broken["spans"]["run"]["calls"] = "1"
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
    # Pinned per phase: a change to the points-to grammar moves only the
    # first tuple, a change to the feasibility path moves both.
    def phases(run):
        return tuple(
            _feasibility_counters(phase.engine_result.stats)
            for phase in (run.alias_phase, run.dataflow_phase)
        )

    assert phases(run) == (
        (1934, 821, 1101, 12, 12, 12), (4980, 1326, 3173, 481, 481, 481),
    )
    gateway = Grapple(
        build_multifile_subject("gateway", scale=1.0).sources,
        [c.fsm for c in pack_checkers()],
    ).run()
    assert phases(gateway) == (
        (60, 0, 57, 3, 3, 3), (110, 11, 85, 14, 14, 14),
    )
    for each in (run, gateway):
        assert _feasibility_counters(each.stats) == tuple(
            map(sum, zip(*phases(each)))
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
    run = _run(sources)
    report = run.run_report(subject="multifile")
    assert validate_run_report(report) == []
    scopes = report["scopes"]
    assert scopes["files"] == 2
    assert scopes["scope_resolutions"] == 1
    assert scopes["unresolved_refs"] == 0
    # Single-file string sources never grew a scopes section.
    single = _run(
        sources["net.mini"].replace("module net;", "")
    ).run_report()
    assert "scopes" not in single
    assert validate_run_report(single) == []
