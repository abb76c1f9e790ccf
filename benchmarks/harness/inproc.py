"""The traced round's child: the real entry point in a fresh interpreter.

``python -m benchmarks.harness.inproc check --out R.json -- <repro argv>``
runs ``repro.cli.main(argv)`` (the program prints its verdict on stdout
as always); ``... serve --plan P.json --out R.json`` drives a
``ServeEngine`` through the planned op sequence in process.  With
``--trace 1`` the timing wrappers of :mod:`.layers` are installed and
the program's own ``TraceRecorder`` is switched on; spans of both land
in one in-memory list, reduced to per-layer self times at exit and
written (Chrome trace format) next to the result for Perfetto.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

from . import inputs as inp
from . import layers


def _capture_trace_recorders():
    """Swap in a ``TraceRecorder`` subclass that remembers its instances
    (the CLI builds its recorder internally).  Returns (list, undo)."""
    created: list = []
    try:
        import repro.obs.trace as trace_mod

        base = trace_mod.TraceRecorder
    except (ImportError, AttributeError):
        return created, lambda: None

    class Capturing(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    trace_mod.TraceRecorder = Capturing
    return created, lambda: setattr(trace_mod, "TraceRecorder", base)


def _reduce(rec: layers.Recorder, window, main_tid: int) -> dict:
    spans = rec.spans
    by_name = layers.inclusive(spans, window)
    return {
        "self": layers.self_times(spans, window),
        "self_main": layers.self_times(
            [s for s in spans if s.tid == main_tid], window
        ),
        "incl": {name: seconds for name, (seconds, _) in by_name.items()},
        "calls": {name: calls for name, (_, calls) in by_name.items()},
        "counters": rec.counters,
        "missing": rec.missing,
    }


def _program_report(run) -> dict:
    try:
        return run.run_report()
    except Exception:  # boundary: a reshaped report must not lose the trace
        return {}


def run_check(argv, trace: bool, trace_path: str | None) -> dict:
    from repro import cli

    main_tid = threading.get_native_id()
    rec = layers.Recorder(capture=("Grapple.run",))
    created, undo = [], (lambda: None)
    if trace:
        created, undo = _capture_trace_recorders()
        rec.install()
        argv = [*argv, "--trace", trace_path]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        end = time.perf_counter()
        rec.uninstall()
        undo()
    sys.stdout.flush()
    rec.spans.append(layers.Span("cli.main", layers.OTHER, main_tid, start, end))
    out = {"returncode": code, "wall_s": end - start}
    if trace:
        for program in created:
            rec.absorb_program(program)
        out.update(_reduce(rec, None, main_tid))
        runs = rec.captured.get("Grapple.run", [])
        out["program"] = _program_report(runs[-1]) if runs else {}
        if created:
            rec.write_trace(created[-1], trace_path)
    return out


def run_serve(plan: dict, trace: bool, trace_path: str | None) -> dict:
    from repro.checkers.checker import Checker
    from repro.serve import ServeEngine

    main_tid = threading.get_native_id()
    rec = layers.Recorder()
    program = None
    if trace:
        from repro.obs.trace import TraceRecorder

        program = TraceRecorder()
        rec.install()
    fsms = [Checker.by_name(n).fsm for n in plan["checkers"].split(",")]
    ops = [inp.Op(**op) for op in plan["ops"]]
    failures: list = []
    op_ms: list = []
    #: Summed over the ops' run-report fragments, in run-report shape.
    summed = {"counters": {}, "gauges": {}, "scopes": {}}
    strata_rechecked = 0
    try:
        engine = ServeEngine(plan["workspace"], plan["workdir"], fsms, trace=program)
        start = time.perf_counter()
        engine.scan()
        cold = time.perf_counter() - start
        ops_start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            if op.kind == "scan":
                fragment = engine.scan()
            else:
                fragment = engine.edit(op.path, op.text)
            op_ms.append((op.kind, (time.perf_counter() - t0) * 1e3))
            failures.extend(inp.check_fragment(op, fragment))
            strata_rechecked += fragment["edit"]["strata_rechecked"]
            for section, acc in summed.items():
                for key, value in fragment.get(section, {}).items():
                    acc[key] = acc.get(key, 0) + value
        ops_end = time.perf_counter()
        summed["counters"]["edges_rederived"] = engine.stats.edges_rederived
        report = sorted(inp.warning_identity(w) for w in engine.warnings())
    finally:
        rec.uninstall()
    out = {
        "cold_scan_s": cold, "op_ms": op_ms, "failures": failures,
        "report": report, "program": summed,
        "strata_rechecked": strata_rechecked,
        "wall_s": sum(ms for _, ms in op_ms) / 1e3,
    }
    if trace:
        rec.absorb_program(program)
        out.update(_reduce(rec, (ops_start, ops_end), main_tid))
        rec.write_trace(program, trace_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.harness.inproc")
    parser.add_argument("mode", choices=("check", "serve"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--plan", default=None)
    parser.add_argument("--out", required=True)
    argv = list(sys.argv[1:] if argv is None else argv)
    rest: list = []
    if "--" in argv:  # everything after it is the program's own argv
        cut = argv.index("--")
        argv, rest = argv[:cut], argv[cut + 1:]
    args = parser.parse_args(argv)
    if args.mode == "check":
        result = run_check(rest, bool(args.trace), args.trace_file)
    else:
        with open(args.plan) as f:
            plan = json.load(f)
        result = run_serve(plan, bool(args.trace), args.trace_file)
    with open(args.out, "w") as f:
        json.dump(result, f)
    return result.get("returncode", 0)


if __name__ == "__main__":
    sys.exit(main())
