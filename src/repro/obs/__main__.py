"""``python -m repro.obs`` -- validate and analyze exported artifacts.

``validate`` checks a Chrome trace (``--trace``) and/or a run report
(``--metrics``) against the schemas in :mod:`repro.obs.report`; CI runs
this over the files produced by the bench smoke job.  ``analyze`` runs
the per-stage analyzer (:mod:`repro.obs.analyze`: span self times over
the closure windows) over a trace (plus, optionally, its run report)
and emits the bottleneck report --
human-readable to stdout, machine-readable JSON with ``--output``.
Exits 1 when any file fails validation or cannot be parsed.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.analyze import analyze_trace, format_bottleneck
from repro.obs.report import trace_coverage, validate_run_report, validate_trace


def _load(path: str):
    if path.endswith(".jsonl"):
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]
    with open(path) as f:
        return json.load(f)


def _load_checked(path: str):
    """(document, error) -- a truncated or unreadable file is a finding
    to report, not a traceback."""
    try:
        return _load(path), None
    except json.JSONDecodeError as exc:
        return None, f"not valid JSON (truncated?): {exc}"
    except UnicodeDecodeError as exc:
        return None, f"not UTF-8 text: {exc.reason} at byte {exc.start}"
    except OSError as exc:
        return None, str(exc)


def _cmd_validate(args) -> int:
    failed = False
    if args.trace:
        trace, load_error = _load_checked(args.trace)
        errors = [load_error] if load_error else validate_trace(trace)
        if errors:
            failed = True
            print(f"{args.trace}: INVALID")
            for error in errors:
                print(f"  - {error}")
        else:
            cov = trace_coverage(trace)
            print(
                f"{args.trace}: ok -- {cov['spans']} spans,"
                f" {len(cov['pids'])} process(es),"
                f" kinds: {', '.join(cov['known_spans_covered'])}"
            )
    if args.metrics:
        report, load_error = _load_checked(args.metrics)
        errors = [load_error] if load_error else validate_run_report(report)
        if errors:
            failed = True
            print(f"{args.metrics}: INVALID")
            for error in errors:
                print(f"  - {error}")
        else:
            n_hist = len(report.get("histograms", {}))
            line = (
                f"{args.metrics}: ok -- {len(report.get('counters', {}))}"
                f" counters, {n_hist} histograms"
            )
            telemetry = report.get("telemetry")
            if telemetry is not None:
                line += f", {telemetry.get('samples', 0)} telemetry samples"
            print(line)
    return 1 if failed else 0


def _cmd_analyze(args) -> int:
    report = None
    trace, load_error = _load_checked(args.trace)
    if load_error:
        print(f"{args.trace}: INVALID\n  - {load_error}")
        return 1
    errors = validate_trace(trace)
    if errors:
        print(f"{args.trace}: INVALID")
        for error in errors:
            print(f"  - {error}")
        return 1
    if args.metrics:
        report, load_error = _load_checked(args.metrics)
        if load_error:
            print(f"{args.metrics}: INVALID\n  - {load_error}")
            return 1
        errors = validate_run_report(report)
        if errors:
            print(f"{args.metrics}: INVALID")
            for error in errors:
                print(f"  - {error}")
            return 1
    try:
        doc = analyze_trace(trace, report)
    except ValueError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"bottleneck report -> {args.output}", file=sys.stderr)
    print(format_bottleneck(doc))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.obs")
    sub = parser.add_subparsers(dest="command", required=True)
    val = sub.add_parser("validate", help="validate trace/report files")
    val.add_argument("--trace", help="Chrome trace JSON (or JSONL) to validate")
    val.add_argument("--metrics", help="run-report JSON to validate")
    ana = sub.add_parser(
        "analyze",
        help="per-stage bottleneck report from a trace (and run report)",
    )
    ana.add_argument("--trace", required=True,
                     help="Chrome trace JSON (or JSONL) to analyze")
    ana.add_argument(
        "--metrics",
        help="run-report JSON: its subject and wall are carried into"
        " the bottleneck report",
    )
    ana.add_argument(
        "-o", "--output", metavar="FILE",
        help="also write the bottleneck report as JSON",
    )
    args = parser.parse_args(argv)

    if not args.trace and not args.metrics:
        parser.error("give --trace and/or --metrics")
    if args.command == "validate":
        return _cmd_validate(args)
    return _cmd_analyze(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `... | head`); not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
