"""The harness's own tests: ``pytest benchmarks/harness`` (not tier-1).

Arithmetic and bookkeeping only -- nothing here runs a workload.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

from benchmarks.harness import compare, inputs, layers, measure, spec  # noqa: E402
from benchmarks.harness.layers import Span  # noqa: E402


# -- percentiles and self time --------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))  # 1..10
    assert layers.percentile(values, 50) == 5
    assert layers.percentile(values, 90) == 9
    assert layers.percentile(values, 100) == 10
    assert layers.percentile([7], 90) == 7
    assert layers.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        layers.percentile([], 50)


def _tree():
    """main thread: root[0,10] > a[1,4] > b[2,3]; a2[5,9]; second thread: io[0,6] > parse[1,3]."""
    return [
        Span("root", layers.OTHER, 1, 0.0, 10.0),
        Span("a", "layer.a", 1, 1.0, 4.0),
        Span("b", "layer.b", 1, 2.0, 3.0),
        Span("a", "layer.a", 1, 5.0, 9.0),
        Span("io", "layer.io", 2, 0.0, 6.0),
        Span("parse", "layer.b", 2, 1.0, 3.0),
    ]


def test_self_time_subtracts_children_per_thread():
    got = layers.self_times(_tree())
    assert got[layers.OTHER] == pytest.approx(10 - 3 - 4)
    assert got["layer.a"] == pytest.approx((3 - 1) + 4)
    assert got["layer.b"] == pytest.approx(1 + 2)  # both threads
    assert got["layer.io"] == pytest.approx(6 - 2)
    # Per thread, the layers sum to the root span of that thread.
    main = layers.self_times([s for s in _tree() if s.tid == 1])
    assert sum(main.values()) == pytest.approx(10.0)


def test_self_time_is_order_independent_and_windowed():
    spans = _tree()
    assert layers.self_times(list(reversed(spans))) == layers.self_times(spans)
    windowed = layers.self_times(spans, window=(4.5, 10.0))
    assert windowed == {"layer.a": pytest.approx(4.0)}


def test_inclusive_totals_and_calls():
    got = layers.inclusive(_tree())
    assert got["a"] == (pytest.approx(7.0), 2)
    assert got["root"] == (pytest.approx(10.0), 1)


# -- wrappers ---------------------------------------------------------------------


def _targets():
    found = []
    for module_name, attr, _layer in layers.WRAPS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        found.append((owner, leaf))
    return found


def test_every_declared_wrap_target_exists_today():
    rec = layers.Recorder()
    try:
        rec.install()
        assert rec.missing == []
    finally:
        rec.uninstall()


def test_wrappers_fully_uninstalled():
    import repro.lang.parser
    import repro.sa.scopes
    import repro.serve

    before = [vars(owner)[leaf] for owner, leaf in _targets()]
    alias_before = (repro.lang.parser.tokenize, repro.sa.scopes.tokenize,
                    repro.serve.tokenize)
    rec = layers.Recorder()
    rec.install()
    during = [vars(owner)[leaf] for owner, leaf in _targets()]
    assert all(a is not b for a, b in zip(before, during))
    # ``from x import f`` aliases are re-bound too, to one shared wrapper.
    assert repro.lang.parser.tokenize is repro.lang.lexer.tokenize
    assert repro.serve.tokenize is not alias_before[2]
    rec.uninstall()
    after = [vars(owner)[leaf] for owner, leaf in _targets()]
    assert all(a is b for a, b in zip(before, after))
    assert (repro.lang.parser.tokenize, repro.sa.scopes.tokenize,
            repro.serve.tokenize) == alias_before
    assert rec._installed == []


def test_wrapper_records_span_and_counter():
    from repro.lang import lexer

    rec = layers.Recorder()
    rec.install((("repro.lang.lexer", "tokenize", "lang.lexer"),))
    try:
        tokens = lexer.tokenize("func f(x) { return x; }")
    finally:
        rec.uninstall()
    assert [s.layer for s in rec.spans] == ["lang.lexer"]
    assert rec.counters["lang.lexer.tokens"] == len(tokens)


def test_missing_wrap_target_reads_zero_not_an_exception():
    rec = layers.Recorder()
    rec.install((
        ("repro.lang.lexer", "no_such_function", "lang.lexer"),
        ("repro.no_such_module", "f", "x"),
        ("repro.serve", "ServeEngine.no_such_method", "serve.engine"),
    ))
    rec.uninstall()
    assert len(rec.missing) == 3
    metrics = measure.layer_metrics({"missing": rec.missing}, wall_s=1.0)
    assert metrics["lang.lexer.time_s"] == 0
    assert metrics["harness.wraps_missing"] == 3
    assert set(metrics) == {m.name for m in spec.PER_LAYER}


def test_layer_metrics_coverage_and_other():
    doc = {
        "self": {"lang.lexer": 2.0, "engine.io_pipeline": 3.0, layers.OTHER: 0.5},
        "self_main": {"lang.lexer": 2.0, "engine.io_pipeline": 1.0, layers.OTHER: 0.5},
        "incl": {"GraphEngine.run": 4.0}, "calls": {"PartitionStore.load": 7},
        "counters": {"lang.lexer.tokens": 11},
        "program": {"counters": {"kernel_batches": 4, "batch_fill": 10,
                                 "constraint_queries": 8, "cache_hits": 2},
                    "gauges": {"final_partitions": 17}, "warnings": 56},
    }
    m = measure.layer_metrics(doc, wall_s=4.0)
    assert m["lang.lexer.time_s"] == 2.0
    assert m["engine.io_pipeline.wait_s"] == 1.0  # engine thread only
    assert m["engine.closure.time_s"] == 4.0
    assert m["engine.partition.loads"] == 7
    assert m["engine.partition.final"] == 17
    assert m["engine.kernel.batch_fill"] == 2.5
    assert m["engine.cache.hit_rate"] == 0.25
    assert m["pipeline.other_s"] == 0.5
    assert m["harness.layer_coverage"] == pytest.approx(3.0 / 4.0)


# -- compare ------------------------------------------------------------------------


def _metric(bound=0.05, better="lower"):
    return spec.Metric("m", "s", better, bound, "")


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 10.0]
    assert compare.verdict(_metric(), base, [10.2, 10.3, 10.1, 10.2, 10.25])[0] == "pass"
    assert compare.verdict(_metric(), base, [11.0, 11.1, 10.9, 11.0, 11.05])[0] == "regression"
    # Wide spread and overlapping ranges: the rounds cannot tell.
    noisy = [9.0, 12.5, 10.0, 11.0, 10.5]
    assert compare.verdict(_metric(), base, noisy)[0] == "unresolved"
    # Wide spread but every new run is better than every base run.
    assert compare.verdict(_metric(), base, [5.0, 7.0, 6.0])[0] == "pass"
    status, worsening = compare.verdict(_metric(better="higher"), [100.0] * 3, [80.0] * 3)
    assert status == "regression" and worsening == pytest.approx(0.2)


def test_compare_sets_reports_every_pairing_with_its_base():
    def side(scale):
        return {"workloads": {w.name: {"end_to_end": {
            m.name: {"samples": [1.0 * scale, 1.01 * scale, 0.99 * scale]}
            for m in spec.END_TO_END}} for w in spec.WORKLOADS}}
    rows = compare.compare_sets(side(1.0), side(1.0))
    assert len(rows) == len(spec.WORKLOADS) * len(spec.END_TO_END)
    assert compare.exit_code(rows) == 0
    assert all("vs base" in text for *_, text in rows)
    worse = compare.compare_sets(side(1.0), side(1.5))
    assert compare.exit_code(worse) == 1
    # --agree is symmetric: a much *faster* second set disagrees too.
    better = compare.compare_sets(side(1.5), side(1.0), symmetric=True)
    assert compare.exit_code(better, strict=True) == 1


# -- names and the BENCHMARK.json contract ----------------------------------------


@pytest.mark.parametrize("bad", ["", "has space", "a/b", "x" * 65, "-lead", "é"])
def test_invalid_names_are_rejected(bad):
    with pytest.raises(ValueError):
        spec.validate_name(bad)


def test_valid_names():
    for good in ("setup_s", "engine.kernel.time_s", "hadoop-ooc", "0abc"):
        assert spec.validate_name(good) == good


def test_benchmark_json_matches_the_spec_and_the_contract():
    doc = spec.benchmark_json()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        assert json.load(f) == doc
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == [
        "hadoop-inmem", "hadoop-ooc", "gateway-cold", "gateway-edits"]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert 1 <= len(doc["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in doc["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert len(json.dumps(doc)) < 64 * 1024


# -- inputs and the verdict oracle --------------------------------------------------


def test_op_plan_is_seeded_and_leaves_no_leak():
    sources = {f"g{k}{part}.mini": f"module g{k}{part};\n"
               for k in range(4) for part in ("core", "svc", "app")}
    assert inputs.op_mix(280) == (200, 40, 40)
    assert inputs.op_mix(30) == (22, 4, 4)
    ops = inputs.plan_ops(sources, seed=3, n=280)
    assert ops == inputs.plan_ops(sources, seed=3, n=280)
    assert ops != inputs.plan_ops(sources, seed=4, n=280)
    assert sum(len(op.added) for op in ops) == sum(len(op.retracted) for op in ops) == 20
    final = inputs.final_sources(sources, ops)
    assert not any(inputs.LEAK_FUNC in text for text in final.values())
    leak = next(op for op in ops if op.added)
    assert leak.added == [(leak.path, "io", f"{leak.path[:-5]}.{inputs.LEAK_FUNC}")]


def test_verdict_oracle_classifies_against_the_seeds():
    truth = {("io", "f_tp"): "tp", ("lock", "f_fp"): "fp"}
    good = (
        "2 warning(s)\n"
        "[io] FileWriter allocated in f_tp (line 3, site 1) can reach program"
        " exit in state 'Open'\n"
        "[lock] Lock allocated in f_fp (line 9, site 4) can reach error state 'Error'\n"
    )
    assert inputs.check_verdict(truth, good, 1) == []
    assert inputs.parse_warnings(good)[0] == ("io", "f_tp", "FileWriter", 3, 1)
    missed = "1 warning(s)\n" + good.splitlines()[1] + "\n"
    assert any("missed" in p for p in inputs.check_verdict(truth, missed, 1))
    extra = good.replace("2 warning", "3 warning") + (
        "[io] FileWriter allocated in clean (line 1, site 9) can reach program"
        " exit in state 'Open'\n")
    assert any("unexpected" in p for p in inputs.check_verdict(truth, extra, 1))
    assert any("exit status" in p for p in inputs.check_verdict(truth, good, 0))


def test_fragment_oracle():
    op = inputs.Op("toggle", "a.mini", "", added=[("a.mini", "io", "a.bench_leak")])
    fragment = {"edit": {"strata_rechecked": 1, "errors": {}, "warnings_retracted": [],
                         "warnings_added": [{"file": "a.mini", "checker": "io",
                                             "func": "a.bench_leak"}]}}
    assert inputs.check_fragment(op, fragment) == []
    fragment["edit"]["strata_rechecked"] = 2
    assert inputs.check_fragment(op, fragment)
    assert inputs.check_fragment(inputs.Op("scan"), {"edit": {"strata_rechecked": 0}}) == []
    assert inputs.check_fragment(inputs.Op("scan"), {"error": "boom"})
