"""CLI tests: ``python -m repro.obs`` and the bench regression gate.

The obs CLI must be safe to point at arbitrary files -- a bad schema
version or a truncated JSON download is an INVALID verdict and exit 1,
never a traceback.  The compare gate must exit 0 on a baseline re-run
and 1 on a genuine regression, with nulls treated as not-applicable.
"""

import importlib.util
import json
import os

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.report import run_report, validate_run_report

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

_spec = importlib.util.spec_from_file_location(
    "bench_compare", os.path.join(ROOT, "benchmarks", "compare.py")
)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def minimal_report(**overrides) -> dict:
    report = {
        "schema": "grapple/run-report",
        "version": 2,
        "generated_unix": 0.0,
        "timing": {"preprocess_s": 0.1, "computation_s": 1.0, "total_s": 1.1},
        "breakdown": {"io": 0.1, "encode": 0.2, "smt": 0.3, "compute": 0.4},
        "counters": {"pairs_processed": 5},
        "gauges": {},
        "histograms": {},
        "warnings": 3,
    }
    report.update(overrides)
    return report


def golden_trace() -> dict:
    return {
        "traceEvents": [
            {"ph": "X", "name": "closure", "cat": "engine", "pid": 1,
             "tid": 0, "ts": 0.0, "dur": 10e6, "args": {}},
            {"ph": "X", "name": "pair-compute", "cat": "pair", "pid": 1,
             "tid": 0, "ts": 0.0, "dur": 4e6, "args": {}},
            {"ph": "X", "name": "repartition", "cat": "store", "pid": 1,
             "tid": 0, "ts": 1e6, "dur": 2e6, "args": {}},
            {"ph": "X", "name": "checkpoint", "cat": "fault", "pid": 1,
             "tid": 0, "ts": 4e6, "dur": 2e6, "args": {}},
            {"ph": "X", "name": "retry", "cat": "fault", "pid": 1,
             "tid": 0, "ts": 6e6, "dur": 1e6, "args": {}},
        ]
    }


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)
    return str(path)


# -- python -m repro.obs validate ----------------------------------------------


def test_validate_accepts_good_report(tmp_path, capsys):
    path = write_json(tmp_path / "report.json", minimal_report())
    assert obs_main(["validate", "--metrics", path]) == 0
    assert "ok" in capsys.readouterr().out


@pytest.mark.parametrize("peak, ok", [
    (63.5, True), (0, False), (-1.0, False), ("63", False), (True, False),
])
def test_validate_checks_the_peak_rss_gauge(peak, ok):
    """``gauges.peak_rss_mb`` is the process's ``ru_maxrss`` when the
    report was built: a positive number when present (older builds'
    reports lack it)."""
    errors = validate_run_report(minimal_report(gauges={"peak_rss_mb": peak}))
    assert (errors == []) is ok
    assert validate_run_report(minimal_report()) == []


def test_a_built_report_carries_the_process_peak_rss():
    from repro.engine.stats import EngineStats
    from repro.obs.profile import peak_rss_mb

    report = run_report(EngineStats(), 0, spans={}, closure={}, histograms={})
    # Rounded to 6 places like every float gauge; the peak only grows.
    assert 0 < report["gauges"]["peak_rss_mb"] <= peak_rss_mb() + 1e-6
    assert validate_run_report(report) == []


def test_validate_rejects_future_schema_version(tmp_path, capsys):
    path = write_json(tmp_path / "report.json", minimal_report(version=99))
    assert obs_main(["validate", "--metrics", path]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out
    assert "version 99 is not supported" in out
    assert "knows 1..2" in out


def test_validate_reports_truncated_json_without_traceback(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(minimal_report())[:40])  # cut mid-object
    assert obs_main(["validate", "--metrics", str(path)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out
    assert "truncated" in out


def test_validate_counts_telemetry_samples(tmp_path, capsys):
    telemetry = {
        "interval_s": 0.25,
        "samples": 4,
        "coordinator": {
            "t_s": [0.0, 0.25, 0.5, 0.75],
            "series": {"rss_bytes": [1, 2, 3, 4]},
        },
    }
    path = write_json(
        tmp_path / "report.json", minimal_report(telemetry=telemetry)
    )
    assert obs_main(["validate", "--metrics", path]) == 0
    assert "4 telemetry samples" in capsys.readouterr().out


def test_validate_rejects_misaligned_telemetry_columns(tmp_path, capsys):
    telemetry = {
        "interval_s": 0.25,
        "samples": 2,
        "coordinator": {
            "t_s": [0.0, 0.25],
            "series": {"rss_bytes": [1]},  # one value, two timestamps
        },
    }
    path = write_json(
        tmp_path / "report.json", minimal_report(telemetry=telemetry)
    )
    assert obs_main(["validate", "--metrics", path]) == 1
    assert "does not align" in capsys.readouterr().out


@pytest.mark.parametrize("interval", [float("inf"), float("nan")])
def test_validate_rejects_a_non_finite_sample_interval(
    tmp_path, capsys, interval
):
    """``json.dump`` writes ``Infinity``/``NaN`` and ``json.load`` reads
    them back, so the report parsed; no other JSON reader would."""
    telemetry = {
        "interval_s": interval,
        "samples": 1,
        "coordinator": {"t_s": [0.0], "series": {"rss_bytes": [1]}},
    }
    path = write_json(
        tmp_path / "report.json", minimal_report(telemetry=telemetry)
    )
    assert obs_main(["validate", "--metrics", path]) == 1
    assert "telemetry.interval_s is not finite" in capsys.readouterr().out


def test_validate_both_artifacts_at_once(tmp_path, capsys):
    trace = write_json(tmp_path / "trace.json", golden_trace())
    report = write_json(tmp_path / "report.json", minimal_report())
    assert obs_main(["validate", "--trace", trace, "--metrics", report]) == 0
    out = capsys.readouterr().out
    assert "5 spans" in out
    assert "1 process(es)" in out


def _histogram(**overrides) -> dict:
    hist = {"buckets": [0.1, 1.0], "counts": [1, 0, 0], "sum": 0.05,
            "count": 1}
    hist.update(overrides)
    return {"lat": hist}


def _span(**overrides) -> dict:
    event = dict(golden_trace()["traceEvents"][0])
    event.update(overrides)
    return {"traceEvents": [event]}


@pytest.mark.parametrize("flag, doc, finding", [
    ("--metrics", minimal_report(histograms=_histogram(buckets=[0.1, "x"])),
     "buckets are not all numbers"),
    ("--metrics", minimal_report(histograms=_histogram(buckets=[True, 1.0])),
     "buckets are not all numbers"),
    ("--metrics", minimal_report(histograms=_histogram(counts=[1, "0", 0])),
     "counts are not all integers"),
    ("--trace", _span(name=["closure"]), "is not a string"),
    ("--trace", _span(pid={"a": 1}), "'pid' is not an integer"),
    ("--trace", _span(tid="main"), "'tid' is not an integer"),
], ids=["bucket-str", "bucket-bool", "count-str", "name-list", "pid-object",
        "tid-str"])
@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_malformed_artifact_is_invalid_not_a_traceback(
    tmp_path, capsys, command, flag, doc, finding
):
    if command == "analyze" and flag == "--metrics":
        args = ["--trace", write_json(tmp_path / "t.json", golden_trace())]
    else:
        args = []
    path = write_json(tmp_path / "doc.json", doc)
    assert obs_main([command, *args, flag, path]) == 1
    out = capsys.readouterr().out
    assert f"{path}: INVALID" in out
    assert finding in out


@pytest.mark.parametrize("command, flag", [
    ("validate", "--metrics"), ("validate", "--trace"), ("analyze", "--trace"),
])
def test_non_utf8_file_is_invalid_not_a_traceback(
    tmp_path, capsys, command, flag
):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"schema": "\xff\xfe"}')
    assert obs_main([command, flag, str(path)]) == 1
    out = capsys.readouterr().out
    assert f"{path}: INVALID" in out
    assert "not UTF-8" in out


def test_requires_an_input():
    with pytest.raises(SystemExit) as exc:
        obs_main(["validate"])
    assert exc.value.code == 2


# -- python -m repro.obs analyze -----------------------------------------------


def test_analyze_golden_trace_cli(tmp_path, capsys):
    trace = write_json(tmp_path / "trace.json", golden_trace())
    out_path = tmp_path / "bottleneck.json"
    assert obs_main(["analyze", "--trace", trace, "-o", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "outside pairs   60.0%" in out
    assert "top stage       closure" in out
    with open(out_path) as f:
        doc = json.load(f)
    assert doc["schema"] == "grapple/bottleneck-report"
    assert doc["overhead_fraction"] == 0.6
    assert "projection" not in doc
    assert sum(doc["stages_s"].values()) == doc["wall_s"]


def test_analyze_validates_before_analyzing(tmp_path, capsys):
    path = tmp_path / "trace.json"
    path.write_text("{not json")
    assert obs_main(["analyze", "--trace", str(path)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_analyze_rejects_bad_report(tmp_path, capsys):
    trace = write_json(tmp_path / "trace.json", golden_trace())
    path = write_json(tmp_path / "report.json", minimal_report(version=99))
    assert obs_main(["analyze", "--trace", trace, "--metrics", path]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_analyze_requires_a_trace(tmp_path):
    path = write_json(tmp_path / "report.json", minimal_report())
    with pytest.raises(SystemExit) as exc:
        obs_main(["analyze", "--metrics", path])
    assert exc.value.code == 2


def test_analyze_empty_trace_exits_nonzero(tmp_path, capsys):
    trace = write_json(tmp_path / "trace.json", {"traceEvents": []})
    assert obs_main(["analyze", "--trace", trace]) == 1


# -- benchmarks/compare.py -----------------------------------------------------


def bench_doc(**overrides) -> dict:
    doc = {
        "subject": "hadoop",
        "cpu_count": 1,
        "results": {
            "1": {
                "wall_s": [5.0, 5.1], "best_s": 5.0, "warnings": 56,
                "pairs_stolen": None, "worker_busy_s": None,
            },
            "2": {
                "wall_s": [6.3, 6.4], "best_s": 6.3, "warnings": 56,
                "pairs_stolen": 24, "worker_busy_s": 6.3,
            },
        },
        "speedup_vs_serial": {"1": 1.0, "2": 0.79},
    }
    doc.update(overrides)
    return doc


def run_compare(tmp_path, fresh, baseline, extra=()):
    fresh_path = write_json(tmp_path / "fresh.json", fresh)
    base_path = write_json(tmp_path / "base.json", baseline)
    return bench_compare.main([fresh_path, base_path, *extra])


def test_compare_identical_passes(tmp_path, capsys):
    assert run_compare(tmp_path, bench_doc(), bench_doc()) == 0
    assert "ok: no regressions" in capsys.readouterr().out


def test_compare_catches_20pct_wall_regression(tmp_path, capsys):
    fresh = bench_doc()
    fresh["results"]["1"]["best_s"] = round(5.0 * 1.20, 3)
    assert run_compare(tmp_path, fresh, bench_doc()) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "results.1.best_s" in out


def test_compare_tolerates_noise_under_threshold(tmp_path):
    fresh = bench_doc()
    fresh["results"]["1"]["best_s"] = 5.4  # +8%, default threshold 15%
    assert run_compare(tmp_path, fresh, bench_doc()) == 0


def test_compare_improvements_always_pass(tmp_path):
    fresh = bench_doc()
    fresh["results"]["1"]["best_s"] = 2.0  # -60%
    assert run_compare(tmp_path, fresh, bench_doc()) == 0


def test_compare_abs_floor_absorbs_millisecond_drift(tmp_path):
    base = bench_doc()
    base["results"]["1"]["best_s"] = 0.010
    fresh = bench_doc()
    fresh["results"]["1"]["best_s"] = 0.015  # +50% but only 5ms
    assert run_compare(tmp_path, fresh, base) == 0


def test_compare_null_is_not_applicable(tmp_path, capsys):
    # Serial-row nulls never gate, even against a null baseline; a
    # null->value flip is reported as drift only.
    fresh = bench_doc()
    fresh["results"]["1"]["worker_busy_s"] = 4.0
    assert run_compare(tmp_path, fresh, bench_doc()) == 0
    assert "n/a changed" in capsys.readouterr().out


def test_compare_warnings_gate_exactly(tmp_path, capsys):
    fresh = bench_doc()
    fresh["results"]["2"]["warnings"] = 57  # off by one = correctness bug
    assert run_compare(tmp_path, fresh, bench_doc()) == 1
    assert "deterministic" in capsys.readouterr().out


def test_compare_speedup_gates_higher_is_better(tmp_path):
    fresh = bench_doc()
    fresh["speedup_vs_serial"]["2"] = 0.5  # was 0.79: real scaling loss
    assert run_compare(tmp_path, fresh, bench_doc()) == 1
    better = bench_doc()
    better["speedup_vs_serial"]["2"] = 1.5
    assert run_compare(tmp_path, better, bench_doc()) == 0


def test_compare_missing_gated_metric_is_a_regression(tmp_path, capsys):
    fresh = bench_doc()
    del fresh["results"]["1"]["best_s"]
    assert run_compare(tmp_path, fresh, bench_doc()) == 1
    assert "missing from fresh" in capsys.readouterr().out


def test_compare_wall_lists_do_not_gate(tmp_path):
    fresh = bench_doc()
    fresh["results"]["1"]["wall_s"] = [50.0, 51.0]  # raw rounds; best_s gates
    assert run_compare(tmp_path, fresh, bench_doc()) == 0


def test_compare_metric_threshold_override(tmp_path):
    fresh = bench_doc()
    fresh["results"]["1"]["best_s"] = 6.0  # +20%
    assert run_compare(
        tmp_path, fresh, bench_doc(), extra=["--metric-threshold", "best_s=0.5"]
    ) == 0
    # And an override can tighten, too.
    tight = bench_doc()
    tight["results"]["1"]["best_s"] = 5.4  # +8%
    assert run_compare(
        tmp_path, tight, bench_doc(), extra=["--metric-threshold", "best_s=0.01"]
    ) == 1


def test_compare_unreadable_input_is_usage_error(tmp_path, capsys):
    base = write_json(tmp_path / "base.json", bench_doc())
    assert bench_compare.main([str(tmp_path / "missing.json"), base]) == 2
    assert "cannot load" in capsys.readouterr().err


def test_compare_scopes_counters_gate_exactly(tmp_path, capsys):
    base = bench_doc(scopes={"scope_resolutions": 58, "unresolved_refs": 3})
    fresh = bench_doc(scopes={"scope_resolutions": 57, "unresolved_refs": 3})
    assert run_compare(tmp_path, fresh, base) == 1
    out = capsys.readouterr().out
    assert "scopes.scope_resolutions" in out
    assert "deterministic counter" in out
    # Identical counters pass, exactly like reduction.* counters.
    assert run_compare(tmp_path, bench_doc(scopes={"unresolved_refs": 3}),
                       bench_doc(scopes={"unresolved_refs": 3})) == 0
