"""Columnar-store closure benchmark: before/after the PR 2 engine rewrite.

Measures *closure* time (``GrappleRun.computation_time``: wall clock
minus frontend and preprocessing) on the ``hadoop`` subject at scale 4
with a 1 MiB memory budget -- a store-stressing configuration -- and
writes the result to ``BENCH_columnar.json`` at the repository root.

The ``baseline`` section of that file was recorded with this harness
*before* the columnar rewrite landed (dict-of-dicts partitions, per-edge
varint decode, synchronous I/O); the default invocation measures the
current engine and reports the speedup against that frozen baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_columnar.py            # measure + report
    PYTHONPATH=src python benchmarks/bench_columnar.py --baseline # re-freeze baseline
    PYTHONPATH=src python benchmarks/bench_columnar.py --tiny     # CI smoke (scale 0.5)

Each measurement runs in a fresh interpreter; rounds are interleaved-free
here (single configuration) and the best of ``ROUNDS`` is reported (the
engine is deterministic; variance is machine noise).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SUBJECT = "hadoop"
SCALE = 4.0
MEMORY_BUDGET_MB = 1
ROUNDS = 3

TINY_SCALE = 0.5
#: Small enough that the tiny run holds more partitions than the store
#: caches (8 vs 4 slots), so the smoke goes through evictions and loads.
TINY_BUDGET_MB = 0.125

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT = os.path.join(ROOT, "BENCH_columnar.json")


def _measure_in_this_process(scale: float, budget_mb: float) -> dict:
    from repro import (
        EngineOptions,
        Grapple,
        GrappleOptions,
        default_checkers,
    )
    from repro.obs.report import breakdown
    from repro.workloads import build_subject

    source = build_subject(SUBJECT, scale=scale).source
    fsms = [c.fsm for c in default_checkers()]
    options = GrappleOptions(
        engine=EngineOptions(memory_budget=int(budget_mb * (1 << 20)))
    )
    run = Grapple(source, fsms, options).run()
    stats = run.stats
    entry = {
        "closure_s": round(run.computation_time, 3),
        "total_s": round(run.total_time, 3),
        "pairs_processed": stats.pairs_processed,
        "edges_after": stats.edges_after,
        "warnings": len(run.report.warnings),
        "breakdown": {
            k: round(v, 4) for k, v in breakdown(run.closure_spans).items()
        },
        "fingerprint": sorted(
            (w.checker, w.kind, w.site, w.state) for w in run.report.warnings
        ),
    }
    for name in ("join_batches", "join_probes", "pending_rows",
                 "feasibility_groups", "group_hits"):
        if hasattr(stats, name):
            entry[name] = getattr(stats, name)
    # Full structured export (counters/gauges/time split) -- metrics
    # histograms stay off above so the timed closure is the undisturbed
    # engine; the report simply reads the stats the run kept anyway.
    entry["report"] = run.run_report(subject=SUBJECT)
    return entry


def _measure_in_subprocess(scale: float, budget_mb: float) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--one", str(scale),
         str(budget_mb)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(out.stdout)


def collect(rounds: int = ROUNDS) -> dict:
    runs = [_measure_in_subprocess(SCALE, MEMORY_BUDGET_MB)
            for _ in range(rounds)]
    reference = runs[0]["fingerprint"]
    for entry in runs:
        assert entry["fingerprint"] == reference, (
            "engine is not deterministic across rounds"
        )
        entry.pop("fingerprint")
    best = min(runs, key=lambda entry: entry["closure_s"])
    return {
        "subject": SUBJECT,
        "scale": SCALE,
        "memory_budget_mb": MEMORY_BUDGET_MB,
        "rounds": rounds,
        "cpu_count": os.cpu_count(),
        "closure_s": [entry["closure_s"] for entry in runs],
        "best": best,
    }


def _load_report() -> dict:
    if os.path.exists(OUTPUT):
        with open(OUTPUT) as f:
            return json.load(f)
    return {}


def _write_report(report: dict) -> None:
    with open(OUTPUT, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")


def freeze_baseline() -> dict:
    report = _load_report()
    report["baseline"] = collect()
    report["baseline"]["note"] = (
        "pre-columnar engine (dict partitions, per-edge varint decode,"
        " synchronous I/O)"
    )
    _write_report(report)
    return report


def measure_current() -> dict:
    report = _load_report()
    report["current"] = collect()
    baseline = report.get("baseline")
    if baseline:
        report["closure_speedup_vs_baseline"] = round(
            baseline["best"]["closure_s"] / report["current"]["best"]["closure_s"],
            3,
        )
    _write_report(report)
    return report


def smoke() -> dict:
    """Tiny-scale end-to-end exercise for CI: no timings recorded."""
    entry = _measure_in_subprocess(TINY_SCALE, TINY_BUDGET_MB)
    assert entry["warnings"] > 0, "tiny run produced no findings"
    assert entry["group_hits"] > 0, "the form memo produced no hits"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.obs.report import validate_run_report

    errors = validate_run_report(entry["report"])
    assert not errors, f"embedded run report failed validation: {errors}"
    return entry


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--one":
        print(json.dumps(
            _measure_in_this_process(float(sys.argv[2]), float(sys.argv[3]))
        ))
    elif "--baseline" in sys.argv:
        print(json.dumps(freeze_baseline(), indent=2))
    elif "--tiny" in sys.argv:
        print(json.dumps(smoke(), indent=2))
    else:
        print(json.dumps(measure_current(), indent=2))
