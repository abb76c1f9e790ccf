"""Pre-closure reduction benchmark: ``--reduce`` on vs. off.

Runs the full pipeline twice on the ``hadoop`` subject at scale 4 with a
1 MiB budget (the store-stressing configuration shared with
``bench_columnar``): once with the :mod:`repro.sa` reductions disabled
and once enabled.  Reports, per mode, the closure time and the number of
input edges handed to each phase's closure, plus the reduction counters
-- and asserts the two modes produce the identical canonical warning set
(the reductions' safety contract).

Writes ``BENCH_reduction.json`` at the repository root.

Usage::

    PYTHONPATH=src python benchmarks/bench_reduction.py         # measure + report
    PYTHONPATH=src python benchmarks/bench_reduction.py --tiny  # CI smoke (scale 0.5)
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
TINY_BUDGET_MB = 4

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT = os.path.join(ROOT, "BENCH_reduction.json")


def _measure_in_this_process(scale: float, budget_mb: int,
                             reduce: bool) -> dict:
    from repro import (
        EngineOptions,
        Grapple,
        GrappleOptions,
        default_checkers,
    )
    from repro.workloads import build_subject

    source = build_subject(SUBJECT, scale=scale).source
    fsms = [c.fsm for c in default_checkers()]
    options = GrappleOptions(
        reduce=reduce,
        engine=EngineOptions(memory_budget=budget_mb << 20),
    )
    run = Grapple(source, fsms, options).run()
    entry = {
        "reduce": reduce,
        "closure_s": round(run.computation_time, 3),
        "total_s": round(run.total_time, 3),
        "alias_edges_in": run.alias_phase.engine_result.stats.edges_before,
        "dataflow_edges_in":
            run.dataflow_phase.engine_result.stats.edges_before,
        "edges_after": run.stats.edges_after,
        "pairs_processed": run.stats.pairs_processed,
        "constraints_solved": run.stats.constraints_solved,
        "warnings": len(run.report.warnings),
        "fingerprint": sorted(
            (w.checker, w.kind, w.site, w.state, w.func, w.line)
            for w in run.report.warnings
        ),
    }
    if run.reduction is not None:
        entry["reduction"] = run.reduction.as_dict()
    return entry


def _measure_in_subprocess(scale: float, budget_mb: int,
                           reduce: bool) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--one", str(scale),
         str(budget_mb), "1" if reduce else "0"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(out.stdout)


def collect(scale: float = SCALE, budget_mb: int = MEMORY_BUDGET_MB,
            rounds: int = ROUNDS) -> dict:
    off_runs = [_measure_in_subprocess(scale, budget_mb, False)
                for _ in range(rounds)]
    on_runs = [_measure_in_subprocess(scale, budget_mb, True)
               for _ in range(rounds)]
    fingerprint = off_runs[0]["fingerprint"]
    for entry in off_runs + on_runs:
        assert entry["fingerprint"] == fingerprint, (
            "reduction changed the canonical warning set"
        )
        entry.pop("fingerprint")
    off = min(off_runs, key=lambda entry: entry["closure_s"])
    on = min(on_runs, key=lambda entry: entry["closure_s"])
    edges_off = off["dataflow_edges_in"]
    edges_on = on["dataflow_edges_in"]
    return {
        "subject": SUBJECT,
        "scale": scale,
        "memory_budget_mb": budget_mb,
        "rounds": rounds,
        "cpu_count": os.cpu_count(),
        "warnings": off["warnings"],
        "reports_identical": True,
        "off": off,
        "on": on,
        "closure_s_off": [entry["closure_s"] for entry in off_runs],
        "closure_s_on": [entry["closure_s"] for entry in on_runs],
        "dataflow_edge_reduction": round(
            1.0 - edges_on / edges_off, 4
        ) if edges_off else 0.0,
        "closure_speedup": round(
            off["closure_s"] / on["closure_s"], 3
        ) if on["closure_s"] else 0.0,
    }


def _write_report(report: dict) -> None:
    with open(OUTPUT, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")


def measure_current() -> dict:
    report = collect()
    _write_report(report)
    return report


def smoke() -> dict:
    """Tiny-scale on/off comparison for CI: correctness, not timing."""
    report = collect(scale=TINY_SCALE, budget_mb=TINY_BUDGET_MB, rounds=1)
    assert report["warnings"] > 0, "tiny run produced no findings"
    assert report["dataflow_edge_reduction"] > 0, (
        "reduction removed no dataflow edges"
    )
    _write_report(report)
    return report


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--one":
        print(json.dumps(_measure_in_this_process(
            float(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1"
        )))
    elif "--tiny" in sys.argv:
        print(json.dumps(smoke(), indent=2))
    else:
        print(json.dumps(measure_current(), indent=2))
