"""Incremental serve daemon: per-edit latency vs. the cold scan.

Runs the serve engine (``repro.serve``, DESIGN.md §16) on a scaled
``gateway`` workspace and measures two numbers: the cold scan (first
observation of the workspace -- every stratum derived from scratch) and
the per-edit latency (one file changed, one stratum re-derived).  The
headline is their ratio, ``speedup_cold_vs_edit``: the whole point of
per-stratum re-checking is that an edit costs one stratum plus fixed
overhead, not the full workspace, so the ratio must grow with workspace
size.  The acceptance bar for the daemon is >= 10x on this subject.

The scale is deliberately large (``SCALE`` independent clusters, eight
files each): at small scales the fixed per-edit overhead (workspace
poll, state persistence, fragment assembly) dominates and the ratio
says nothing about the strata.  Each measured edit appends a clean
function to one cluster's service file -- digest changes, one stratum
re-runs, and the warning fingerprint is unchanged, which the bench
verifies against a from-scratch run after the edit sequence (the
byte-identical acceptance golden, embedded here so a perf run cannot
quietly diverge from correctness).

Every round runs in a fresh interpreter, ``best_s`` is the min across
rounds (deterministic engines; the variance is machine noise), and the
edit estimator is the min across all edits of all rounds.

Runnable standalone (``PYTHONPATH=src python benchmarks/bench_incremental.py``)
or under pytest with the rest of the bench suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SUBJECT = "gateway"
SCALE = 16.0
EDITS = 3
ROUNDS = 3

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT = os.path.join(ROOT, "BENCH_incremental.json")


def _measure_in_this_process() -> dict:
    """One cold scan plus ``EDITS`` single-file edits, all timed."""
    import tempfile
    import time

    from repro.analysis.pipeline import Grapple
    from repro.checkers.checker import pack_checkers
    from repro.serve import ServeEngine
    from repro.workloads.multifile import build_multifile_subject

    fsms = [c.fsm for c in pack_checkers()]
    subject = build_multifile_subject(SUBJECT, scale=SCALE)
    with tempfile.TemporaryDirectory() as tmp:
        workspace = os.path.join(tmp, "ws")
        workdir = os.path.join(tmp, "wd")
        os.makedirs(workspace)
        for path, text in subject.sources.items():
            with open(os.path.join(workspace, path), "w") as f:
                f.write(text)

        engine = ServeEngine(workspace, workdir, fsms)
        start = time.perf_counter()
        cold = engine.scan()
        cold_wall = time.perf_counter() - start

        edit_walls = []
        rechecked = []
        clusters = int(round(SCALE))
        for step in range(EDITS):
            # Spread the edits across clusters so no stratum cache warms
            # a later measurement.
            name = f"g{step % clusters}svc.mini"
            path = os.path.join(workspace, name)
            with open(path) as f:
                text = f.read()
            text += f"func bench_pad{step}(v) {{\n    return v + {step};\n}}\n"
            start = time.perf_counter()
            fragment = engine.edit(name, text)
            edit_walls.append(time.perf_counter() - start)
            rechecked.append(fragment["edit"]["strata_rechecked"])

        fingerprint = sorted(
            (w["checker"], w["kind"], w["site"], w["type_name"],
             w["state"], w["func"], w["line"])
            for w in engine.warnings()
        )
        sources = {
            name: open(os.path.join(workspace, name)).read()
            for name in sorted(os.listdir(workspace))
            if name.endswith(".mini")
        }
        scratch = Grapple(sources, fsms).run()
        scratch_fingerprint = sorted(
            (w.checker, w.kind, w.site, w.type_name, w.state, w.func, w.line)
            for w in scratch.report.warnings
        )
        if fingerprint != scratch_fingerprint:
            raise AssertionError(
                "incremental state diverged from a from-scratch run"
            )
        return {
            "cold_s": round(cold_wall, 3),
            "edit_s": [round(w, 4) for w in edit_walls],
            "strata": cold["edit"]["strata_total"],
            "strata_rechecked": rechecked,
            "warnings": len(fingerprint),
        }


def _measure_in_subprocess() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--one"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(out.stdout)


def collect() -> dict:
    rounds = [_measure_in_subprocess() for _ in range(ROUNDS)]
    reference = rounds[0]
    for entry in rounds[1:]:
        if entry["warnings"] != reference["warnings"]:
            raise AssertionError(
                "serve daemon warning count varied across rounds:"
                " the daemon is not deterministic"
            )
    for entry in rounds:
        if any(n > 1 for n in entry["strata_rechecked"]):
            raise AssertionError(
                "a single-file edit re-checked more than one stratum"
            )
    cold_walls = [entry["cold_s"] for entry in rounds]
    edit_walls = [w for entry in rounds for w in entry["edit_s"]]
    cold_best = min(cold_walls)
    edit_best = min(edit_walls)
    return {
        "subject": SUBJECT,
        "scale": SCALE,
        "edits_per_round": EDITS,
        "rounds": ROUNDS,
        "strata": reference["strata"],
        "results": {
            "cold": {
                "wall_s": cold_walls,
                "best_s": cold_best,
                "warnings": reference["warnings"],
            },
            "edit": {
                "wall_s": edit_walls,
                "best_s": edit_best,
                "strata_rechecked_max": max(
                    n for entry in rounds for n in entry["strata_rechecked"]
                ),
            },
        },
        "speedup_cold_vs_edit": round(cold_best / edit_best, 3),
    }


def write_report() -> dict:
    report = collect()
    with open(OUTPUT, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    return report


def test_incremental(capsys):
    report = write_report()
    with capsys.disabled():
        print(f"\n=== Incremental serve ({SUBJECT}, scale {SCALE}) ===")
        cold = report["results"]["cold"]
        edit = report["results"]["edit"]
        print(
            f"cold {cold['best_s']:.3f}s over {report['strata']} strata"
            f" ({cold['warnings']} warnings)"
        )
        print(
            f"edit {edit['best_s']:.3f}s"
            f" -> {report['speedup_cold_vs_edit']:.1f}x vs cold"
        )
    assert report["results"]["edit"]["strata_rechecked_max"] == 1
    # The daemon's reason to exist: an edit must be an order of
    # magnitude cheaper than re-closing the workspace.
    assert report["speedup_cold_vs_edit"] >= 10


if __name__ == "__main__":
    if len(sys.argv) == 2 and sys.argv[1] == "--one":
        print(json.dumps(_measure_in_this_process()))
    else:
        print(json.dumps(write_report(), indent=2))
