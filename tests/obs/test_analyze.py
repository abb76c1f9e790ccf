"""Golden tests for the per-stage trace analyzer (repro.obs.analyze).

The fixture is a hand-built 10-second closure window whose attribution
is computable on paper, so every derived quantity -- per-stage self
seconds, the fraction outside pair visits -- is asserted exactly rather
than within a tolerance.

Timeline (seconds, one process)::

    0    1    2    3    4    5    6    7    8    9    10
    [closure  window                                   ]
    [pair-compute       ]
         [repart. ]     [chkpt   ] [retry]
    self:  pair-compute 2, repartition 2, checkpoint 2, retry 1,
           closure 3 (the time under no other span)
"""

import json

import pytest

from repro.obs.analyze import analyze_trace, format_bottleneck


def _span(name, pid, start_s, dur_s, cat="engine", tid=0):
    return {
        "ph": "X",
        "name": name,
        "cat": cat,
        "pid": pid,
        "tid": tid,
        "ts": start_s * 1e6,
        "dur": dur_s * 1e6,
        "args": {},
    }


def golden_trace() -> dict:
    return {
        "traceEvents": [
            _span("closure", 1, 0.0, 10.0),
            _span("pair-compute", 1, 0.0, 4.0, cat="pair"),
            _span("repartition", 1, 1.0, 2.0, cat="store"),
            _span("checkpoint", 1, 4.0, 2.0, cat="fault"),
            _span("retry", 1, 6.0, 1.0, cat="fault"),
        ]
    }


@pytest.fixture()
def doc():
    return analyze_trace(golden_trace())


def test_schema_header(doc):
    assert doc["schema"] == "grapple/bottleneck-report"
    assert doc["version"] == 3
    assert doc["windows"] == 1


def test_stage_attribution_is_exact(doc):
    assert doc["wall_s"] == 10.0
    assert doc["stages_s"] == {
        "checkpoint": 2.0,
        "closure": 3.0,
        "pair-compute": 2.0,
        "repartition": 2.0,
        "retry": 1.0,
    }
    assert doc["stage_fractions"] == {
        "checkpoint": 0.2,
        "closure": 0.3,
        "pair-compute": 0.2,
        "repartition": 0.2,
        "retry": 0.1,
    }


def test_stages_partition_the_wall_exactly(doc):
    assert sum(doc["stages_s"].values()) == doc["wall_s"]


def test_overhead_is_everything_outside_pair_visits(doc):
    assert doc["overhead_s"] == 6.0
    assert doc["overhead_fraction"] == 0.6
    # The repartition ran inside the pair visit: not overhead.
    assert doc["top_overhead_stage"] == "closure"


def test_nested_stage_innermost_wins():
    trace = {
        "traceEvents": [
            _span("closure", 1, 0.0, 4.0),
            _span("checkpoint", 1, 0.0, 4.0, cat="fault"),
            _span("repartition", 1, 1.0, 2.0, cat="store"),
        ]
    }
    doc = analyze_trace(trace)
    assert doc["stages_s"] == {
        "checkpoint": 2.0, "closure": 0.0, "repartition": 2.0,
    }
    assert doc["overhead_fraction"] == 1.0


def test_pair_compute_outranks_stages():
    """Innermost wins: a pair visit inside a stage is its own stage."""
    trace = {
        "traceEvents": [
            _span("closure", 1, 0.0, 2.0),
            _span("repartition", 1, 0.0, 2.0, cat="store"),
            _span("pair-compute", 1, 0.5, 1.0, cat="pair"),
        ]
    }
    doc = analyze_trace(trace)
    assert doc["stages_s"] == {
        "closure": 0.0, "pair-compute": 1.0, "repartition": 1.0,
    }
    assert doc["overhead_s"] == 1.0


def test_multiple_windows_sum():
    trace = {
        "traceEvents": [
            _span("closure", 1, 0.0, 2.0),
            _span("closure", 1, 5.0, 3.0),
            _span("pair-compute", 1, 0.0, 2.0, cat="pair"),
        ]
    }
    doc = analyze_trace(trace)
    assert doc["windows"] == 2
    assert doc["wall_s"] == 5.0  # gaps between windows are not wall
    assert doc["stages_s"] == {"closure": 3.0, "pair-compute": 2.0}


def test_pair_compute_clipped_to_windows():
    # A pair-compute span hanging past the closure window only counts
    # for its in-window portion.
    trace = {
        "traceEvents": [
            _span("closure", 1, 0.0, 2.0),
            _span("pair-compute", 1, 1.0, 5.0, cat="pair"),
        ]
    }
    doc = analyze_trace(trace)
    assert doc["stages_s"] == {"closure": 1.0, "pair-compute": 1.0}


def test_other_threads_are_not_stages():
    """Spans another thread records while the closure runs are not
    stages; the closure's wall is the engine thread's."""
    trace = {
        "traceEvents": [
            _span("closure", 1, 0.0, 2.0),
            _span("pair-compute", 1, 0.0, 1.0, cat="pair"),
            _span("partition-load", 1, 0.5, 1.0, cat="io", tid=7),
        ]
    }
    doc = analyze_trace(trace)
    assert doc["stages_s"] == {"closure": 1.0, "pair-compute": 1.0}


def test_no_closure_span_raises():
    trace = {"traceEvents": [_span("pair-compute", 1, 1.0, 2.0, cat="pair")]}
    with pytest.raises(ValueError, match="no 'closure' span"):
        analyze_trace(trace)


def test_empty_trace_raises():
    with pytest.raises(ValueError, match="no complete"):
        analyze_trace({"traceEvents": []})


def test_report_context_carried_through():
    report = {
        "subject": "hadoop",
        "timing": {"computation_s": 9.5},
    }
    doc = analyze_trace(golden_trace(), report=report)
    assert doc["subject"] == "hadoop"
    assert doc["run_wall_s"] == 9.5


def test_format_bottleneck_renders_and_doc_is_json(doc):
    text = format_bottleneck(doc)
    assert "outside pairs   60.0%" in text
    assert "top stage       closure" in text
    assert "workers" not in text
    json.dumps(doc)  # report must be serialisable as-is
