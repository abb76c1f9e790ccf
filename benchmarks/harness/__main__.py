"""``python -m benchmarks.harness`` -- the repo's benchmark.

One run of one workload (the form the benchmark driver calls)::

    python3 -m benchmarks.harness --workload hadoop-ooc --seed 1 --seconds 20 --trace 0

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--workload`` it runs the whole set -- every workload ``--rounds`` times
untraced plus one traced round each -- and writes the per-round results
with host facts to ``benchmarks/results/harness/latest.json``::

    python3 -m benchmarks.harness [--rounds 5] [--seed 1] [--smoke] [--agree]
    python3 -m benchmarks.harness compare A.json B.json
    python3 -m benchmarks.harness spec          # the BENCHMARK.json document
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from . import compare, spec
from .runner import RESULTS, ROOT


def _need_program() -> None:
    """The benchmark measures the program in ``src/``; without it there is
    nothing to run (and no result to print)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        sys.exit("benchmarks.harness: src/repro is missing; nothing to measure")
    sys.path.insert(0, os.path.join(ROOT, "src"))


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=10)


def host_facts() -> dict:
    facts = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load_1min": os.getloadavg()[0],
        "git_sha": "unknown", "git_dirty": None,
    }
    try:
        import numpy

        facts["numpy"] = numpy.__version__
    except ImportError:
        facts["numpy"] = None
    from repro.engine.kernel import resolve_backend

    facts["kernel_backend"] = resolve_backend("auto")
    try:
        sha = _git("rev-parse", "HEAD")
        if sha.returncode == 0:  # the driver's checkout is not a repository
            facts["git_sha"] = sha.stdout.strip()
            facts["git_dirty"] = bool(_git("status", "--porcelain").stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return facts


def run_once(workload: spec.Workload, seed: int, seconds: float, trace: int,
             smoke: bool):
    from . import measure

    base = os.path.join(ROOT, RESULTS)
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        return measure.run(workload, seed, seconds, trace, smoke, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _declared(trace: int):
    return spec.PER_LAYER if trace else spec.END_TO_END


def print_result(result) -> None:
    print(f"== {result.workload} seed={result.seed} trace={result.trace}"
          f" attempted={result.attempted} failed={result.failed}"
          f"{' NOISY' if result.facts.get('noisy') else ''}")
    for metric in _declared(result.trace):
        value = result.metrics.get(metric.name)
        if value is None:
            continue
        line = f"{metric.name:<38} {value:>14.6g} {metric.unit}"
        samples = result.samples.get(metric.name)
        if samples:
            line += "   rounds: " + " ".join(f"{s:.4g}" for s in samples)
        print(line)
    if result.facts.get("raw_wall_s"):
        print("raw check walls, s: "
              + " ".join(f"{w:.3f}" for w in result.facts["raw_wall_s"]))
    factors = result.facts.get("host_factor")
    if factors:
        print("host slowness vs reference (times above are wall / this): "
              + " ".join(f"{f:.2f}" for f in factors))
    for message in result.failures[:20]:
        print(f"FAILED: {message}")
    if result.facts.get("missing"):
        print(f"missing wrap targets: {result.facts['missing']}")
    if result.facts.get("trace_file"):
        print(f"trace (open in ui.perfetto.dev): {result.facts['trace_file']}")


def driver_line(result) -> str:
    """The contract's last stdout line."""
    metrics = {
        m.name: {"value": result.metrics[m.name], "unit": m.unit}
        for m in _declared(result.trace) if m.name in result.metrics
    }
    return json.dumps({
        "correct": result.failed == 0,
        "attempted": max(result.attempted, 1),
        "failed": result.failed,
        "metrics": metrics,
    })


# -- the whole set ------------------------------------------------------------------


def _summary(unit: str, samples) -> dict:
    return {
        "unit": unit, "median": statistics.median(samples),
        "min": min(samples), "max": max(samples), "n": len(samples),
        "samples": samples,
    }


def run_set(seed: int, rounds: int, seconds: float, smoke: bool) -> dict:
    started = time.perf_counter()
    doc = {
        "schema": "grapple/benchmark-run", "version": 1,
        "seed": seed, "rounds": rounds, "seconds": seconds, "smoke": smoke,
        "host": host_facts(), "workloads": {},
    }
    stdout_sha = {}
    for workload in spec.WORKLOADS:
        entry = doc["workloads"][workload.name] = {
            "end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0,
            "failures": [], "noisy_rounds": 0,
        }
        per_round: dict = {}
        for _ in range(rounds):
            result = run_once(workload, seed, seconds, 0, smoke)
            print_result(result)
            for metric in spec.END_TO_END:
                if metric.name in result.metrics:
                    per_round.setdefault(metric.name, []).append(result.metrics[metric.name])
            _account(entry, result)
            stdout_sha[workload.name] = result.facts.get("stdout_sha256")
        for metric in spec.END_TO_END:
            if per_round.get(metric.name):
                entry["end_to_end"][metric.name] = _summary(metric.unit, per_round[metric.name])
        traced = run_once(workload, seed, seconds, 1, smoke)
        print_result(traced)
        _account(entry, traced)
        entry["per_layer"] = {
            m.name: {"unit": m.unit, "value": traced.metrics[m.name], "source": m.source}
            for m in spec.PER_LAYER if m.name in traced.metrics
        }
    # Same file, two budgets: the out-of-core verdict must be byte-identical.
    if stdout_sha.get("hadoop-ooc") != stdout_sha.get("hadoop-inmem"):
        ooc = doc["workloads"]["hadoop-ooc"]
        ooc["failed"] += 1
        ooc["failures"].append("stdout differs from hadoop-inmem")
    for name, entry in doc["workloads"].items():
        entry["fail_share"] = entry["failed"] / max(entry["attempted"], 1)
    doc["host"]["load_1min_end"] = os.getloadavg()[0]
    doc["wall_s"] = time.perf_counter() - started
    return doc


def _account(entry, result) -> None:
    entry["attempted"] += result.attempted
    entry["failed"] += result.failed
    entry["failures"].extend(result.failures[:10])
    entry["noisy_rounds"] += bool(result.facts.get("noisy"))


def print_set(doc) -> None:
    print(f"\n== summary (seed {doc['seed']}, {doc['rounds']} rounds,"
          f" {doc['wall_s']:.0f} s, host {doc['host']['cpu_count']} cpu,"
          f" kernel {doc['host']['kernel_backend']}) ==")
    for name, entry in doc["workloads"].items():
        print(f"{name}: fail_share {entry['fail_share']:.4f}"
              f" ({entry['failed']}/{entry['attempted']}),"
              f" noisy rounds {entry['noisy_rounds']}")
        for metric, s in entry["end_to_end"].items():
            print(f"  {metric:<14} median {s['median']:.5g} {s['unit']}"
                  f"  min {s['min']:.5g}  max {s['max']:.5g}  n={s['n']}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    os.chdir(ROOT)
    if argv[:1] == ["spec"]:
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: python -m benchmarks.harness compare A.json B.json")
        return compare.main(argv[1], argv[2])
    parser = argparse.ArgumentParser(prog="python -m benchmarks.harness")
    parser.add_argument("--workload", choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, 30 ops, 1 round; same checks and schema")
    parser.add_argument("--agree", action="store_true",
                        help="run the set twice; fail unless every end-to-end"
                        " metric agrees within its bound")
    parser.add_argument("--out", default=os.path.join(RESULTS, "latest.json"))
    args = parser.parse_args(argv)
    _need_program()
    seconds = args.seconds
    if seconds is None:
        seconds = 0 if args.smoke else spec.RUN_SECONDS
    if args.workload:
        result = run_once(spec.workload(args.workload), args.seed, seconds,
                          args.trace, args.smoke)
        print_result(result)
        print(driver_line(result))
        return 0
    rounds = 1 if args.smoke else args.rounds
    doc = run_set(args.seed, rounds, seconds, args.smoke)
    print_set(doc)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
    print(f"results -> {args.out}")
    failed = any(e["failed"] for e in doc["workloads"].values())
    if args.agree:
        second = run_set(args.seed, rounds, seconds, args.smoke)
        print_set(second)
        rows = compare.compare_sets(doc, second, symmetric=True)
        print(compare.render(rows))
        failed = failed or bool(compare.exit_code(rows, strict=True))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
