"""Leaf spans (``repro.obs.trace.Leaf``).

A leaf is the reusable span the closure times its encoding merges and
form keys with.  It must be indistinguishable from a ``Span`` of the
same name in everything a run reports: its row in the span table, the
self time it takes from the span around it, and its Chrome event.
"""

import itertools
import json

import pytest

from repro.cli import main
from repro.obs import trace as trace_mod
from repro.obs.trace import TraceRecorder
from repro.workloads import build_subject


def _record(monkeypatch, leafy: bool, chrome: bool):
    """The same nesting recorded on a fake clock that ticks 1, 2, 3, ...
    seconds per read: ``outer`` around two ``form-key`` regions and a
    child span, with the key either a span or one reused leaf."""
    clock = itertools.count(1.0)
    monkeypatch.setattr(trace_mod, "_perf", lambda: next(clock))
    rec = TraceRecorder(chrome=chrome)
    leaf = rec.leaf("form-key", cat="encode")

    def key():
        return leaf if leafy else rec.span("form-key", cat="encode")

    window = rec.window()
    with rec.span("outer", cat="pair"):
        with key():
            pass
        with rec.span("smt-solve", cat="smt") as span:
            span.args["sat"] = True
        with key():
            pass
    with key():  # no enclosing span
        pass
    return rec, window.spans()


@pytest.mark.parametrize("chrome", [False, True])
def test_a_leaf_records_what_a_span_records(monkeypatch, chrome):
    span_rec, span_rows = _record(monkeypatch, leafy=False, chrome=chrome)
    leaf_rec, leaf_rows = _record(monkeypatch, leafy=True, chrome=chrome)
    assert leaf_rows == span_rows
    assert leaf_rows["form-key"] == (3.0, 3.0, 3)
    # The outer span's self time is its inclusive time less its
    # children's: the two keys and the solve.
    self_s, incl_s, calls = leaf_rows["outer"]
    assert (incl_s - self_s, calls) == (3.0, 1)
    assert leaf_rec.events == span_rec.events
    if chrome:
        keys = [e for e in leaf_rec.events if e.get("name") == "form-key"]
        assert len(keys) == 3
        assert all(e["cat"] == "encode" and "args" not in e for e in keys)


def test_a_histogram_span_cannot_be_a_leaf():
    with pytest.raises(ValueError):
        TraceRecorder().leaf("smt-solve")


def test_trace_writes_the_leaf_spans_events(tmp_path):
    """``check --trace`` still writes every ``form-key`` and
    ``enc-merge`` region as an event, one per span-table call."""
    subject = tmp_path / "zk.mini"
    subject.write_text(build_subject("zookeeper", scale=0.3).source)
    trace, report = tmp_path / "trace.json", tmp_path / "report.json"
    main(["check", str(subject), "--trace", str(trace),
          "--metrics-json", str(report)])
    events = json.loads(trace.read_text())["traceEvents"]
    spans = json.loads(report.read_text())["spans"]
    counters = json.loads(report.read_text())["counters"]
    for name in ("form-key", "enc-merge"):
        mine = [e for e in events if e.get("name") == name]
        assert mine and all(e["cat"] == "encode" for e in mine)
        assert len(mine) == spans[name]["calls"]
    assert spans["form-key"]["calls"] == (
        counters["constraint_queries"] - counters["cache_hits"]
    )
