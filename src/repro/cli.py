"""Command-line interface: ``python -m repro``.

Subcommands:

* ``check FILE... [--checkers io,lock,exception,socket] [--unroll K]``
  -- run finite-state property checkers over one or more mini-language
  source files (or a directory of ``.mini`` files); multiple files are
  linked by cross-file name resolution first;
* ``subjects`` -- list the built-in synthetic evaluation subjects;
* ``generate NAME [--scale S] [-o FILE]`` -- emit a synthetic subject's
  source (and its ground-truth seed list to stderr); multi-file
  subjects (``gateway``) write one ``.mini`` per module when ``-o``
  names a directory.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from repro import EngineOptions, Grapple, GrappleOptions
from repro.checkers.checker import ALL_CHECKERS, PAPER_CHECKERS, Checker
from repro.checkers.fsm import FsmError, fsms_by_type
from repro.cfet.cfet import TooBranchyError
from repro.lang.parser import ParseError  # LexError and LinkError are too


class UsageError(Exception):
    """A command-line value the run cannot start with: :func:`main`
    prints it as one ``repro: ...`` line and exits 2, so a bad flag is
    never mistaken for a verdict (exit 1 = warnings found)."""


def _named_checkers(text: str) -> list[Checker]:
    try:
        return [Checker.by_name(name.strip()) for name in text.split(",")]
    except KeyError as exc:  # by_name's message names the checker
        raise UsageError(exc.args[0]) from None


def _unparsable(file_args: list[str], exc: Exception) -> UsageError:
    return UsageError(f"cannot check {', '.join(file_args)}: {exc}")


def _check_unroll(unroll: int) -> None:
    if unroll < 1:
        raise UsageError(f"--unroll wants a bound >= 1, not {unroll}")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Grapple reproduction: static finite-state property"
        " checking via a disk-based graph engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="check one or more source files")
    check.add_argument("file", nargs="+",
                       help="mini-language source file(s), or one directory"
                       " of .mini files; multiple files are linked by"
                       " cross-file name resolution")
    fsm_source = check.add_mutually_exclusive_group()
    fsm_source.add_argument(
        "--checkers",
        default=",".join(PAPER_CHECKERS),
        help="comma-separated checker names (default: the paper's four,"
        f" {','.join(PAPER_CHECKERS)}; also available:"
        f" {','.join(n for n in ALL_CHECKERS if n not in PAPER_CHECKERS)})",
    )
    fsm_source.add_argument(
        "--spec",
        action="append",
        default=[],
        help="FSM specification file (repeatable); used *instead of* the"
        " built-in checkers, so it excludes --checkers",
    )
    check.add_argument("--unroll", type=int, default=2,
                       help="loop unroll bound (default 2)")
    check.add_argument("--reduce", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="pre-closure static-analysis reductions"
                       " (constant-branch folding, dead-store elimination,"
                       " FSM-relevance slicing, cf-chain compression);"
                       " on by default, --no-reduce disables")
    check.add_argument("--lint", action="store_true",
                       help="also run the mini-language linter and print"
                       " its diagnostics to stderr (use-before-init,"
                       " unreachable code, constant branches, dead"
                       " stores, shadowed variables, tainted sinks,"
                       " lock-order violations, tracked objects escaping"
                       " without a close; multi-file runs add"
                       " unresolved-name and ambiguous-import)")
    check.add_argument("--memory-budget", type=float, default=64,
                       help="engine memory budget in MiB; fractions allowed"
                       " (default 64)")
    check.add_argument("--no-cache", action="store_true",
                       help="disable constraint memoisation")
    check.add_argument("--stats", action="store_true",
                       help="print engine statistics")
    check.add_argument("--trace", metavar="FILE", default=None,
                       help="record a Chrome trace_event JSON of the run"
                       " (open in chrome://tracing or ui.perfetto.dev;"
                       " a .jsonl suffix selects the compact JSONL form)")
    check.add_argument("--metrics-json", metavar="FILE", default=None,
                       help="write the grapple/run-report JSON (counters,"
                       " gauges, per-span times, latency/size histograms,"
                       " time breakdown)")
    check.add_argument("--heartbeat", type=float, metavar="SECONDS",
                       default=None,
                       help="print a progress line to stderr every N"
                       " seconds (pairs done/eligible, edges, budget"
                       " occupancy)")
    check.add_argument("--profile", action="store_true",
                       help="full profiling bundle: record a Chrome trace"
                       " (default trace.json unless --trace names one),"
                       " a run report with resource-telemetry timeseries"
                       " (default run-report.json unless --metrics-json"
                       " names one), and start the background gauge"
                       " sampler; analyze afterwards with"
                       " 'python -m repro.obs analyze'")
    check.add_argument("--sample-interval", type=float, metavar="SECONDS",
                       default=0.25,
                       help="resource-sampler cadence under --profile"
                       " (default 0.25)")
    check.add_argument("--workdir", metavar="DIR", default=None,
                       help="keep partition files (and per-pair checkpoint"
                       " manifests) in DIR instead of a throwaway temp"
                       " directory; required for --resume")
    check.add_argument("--resume", action="store_true",
                       help="resume an interrupted run from the checkpoint"
                       " manifest in --workdir (validated against the"
                       " current subject and engine options)")
    check.add_argument("--max-retries", type=int, default=2,
                       help="retry a partition pair whose partition was"
                       " corrupt up to N times before degrading it to a"
                       " warning (default 2)")
    check.add_argument("--fault-plan", metavar="SPEC", default=None,
                       help="deterministic fault injection for testing, e.g."
                       " 'short_write@partition-write:2,kill_run@"
                       "checkpoint:3' (see repro.faults)")

    sub.add_parser("subjects", help="list built-in synthetic subjects")

    generate = sub.add_parser("generate", help="emit a synthetic subject")
    generate.add_argument("name")
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("-o", "--output", default=None)

    serve = sub.add_parser(
        "serve",
        help="incremental analysis daemon: watch a workspace of .mini"
        " files and answer each edit with its warning delta",
    )
    serve.add_argument("workspace",
                       help="directory of .mini files to watch")
    serve.add_argument("--workdir", required=True,
                       help="persistent state directory (stratum"
                       " results: serve-state.jsonl, the whole state"
                       " then one line per edit)")
    serve.add_argument(
        "--checkers",
        default=",".join(PAPER_CHECKERS),
        help="comma-separated checker names (default: the paper's four)",
    )
    serve.add_argument("--unroll", type=int, default=2,
                       help="loop unroll bound (default 2)")
    serve.add_argument("--reduce", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="pre-closure reductions (default on)")
    serve.add_argument("--socket", metavar="PATH", default=None,
                       help="answer line-oriented JSON requests on a"
                       " local unix socket at PATH (edits can also be"
                       " pushed through it); without it the daemon"
                       " only polls the workspace")
    serve.add_argument("--poll", type=float, default=0.5,
                       help="workspace polling cadence in seconds"
                       " (mtime+digest, no external watchers;"
                       " default 0.5)")
    serve.add_argument("--once", action="store_true",
                       help="one scan: bring the persistent state"
                       " current, print the run-report fragment, exit"
                       " (scripted/CI mode)")
    serve.add_argument("--report", action="store_true",
                       help="with --once: print the full accumulated"
                       " serve report instead of the edit fragment")
    serve.add_argument("--trace", metavar="FILE", default=None,
                       help="record a Chrome trace of the serve session"
                       " (incr-diff/incr-join/incr-retract spans plus"
                       " the per-stratum engine spans)")
    return parser


def _gather_sources(file_args: list[str]):
    """Resolve the ``check`` positionals to ``(subject name, sources)``.

    Every positional becomes part of one ``{path: text}`` mapping routed
    through cross-file name resolution: a directory expands to its
    sorted ``.mini`` files, a file stands for itself -- one file, too,
    so a lone file that declares ``module m;`` checks exactly as it
    does inside its directory.
    """
    paths: list[str] = []
    for entry in file_args:
        if os.path.isdir(entry):
            paths.extend(
                sorted(
                    os.path.join(entry, name)
                    for name in os.listdir(entry)
                    if name.endswith(".mini")
                )
            )
        else:
            paths.append(entry)
    if not paths:
        raise UsageError(f"no .mini files found in {', '.join(file_args)}")
    sources = {path: _read_source(path) for path in paths}
    return ";".join(paths), sources


def _make_workdir(path: str) -> None:
    """Create ``--workdir`` before any analysis: a file in its way would
    otherwise fail the run only at its first write."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--workdir {path!r}: {exc.strerror}") from None


def _read_source(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise UsageError(
            f"cannot read {path}: {exc.reason} at byte {exc.start}"
        ) from None


def cmd_check(args) -> int:
    """``repro check``: exit 1 when warnings are found, else 0."""
    _check_unroll(args.unroll)
    budget = args.memory_budget
    budget_bytes = int(budget * (1 << 20)) if math.isfinite(budget) else 0
    if budget_bytes < 1:
        raise UsageError(
            f"--memory-budget wants a finite size > 0 MiB, not {budget}"
        )
    for flag, interval in (("--heartbeat", args.heartbeat),
                           ("--sample-interval", args.sample_interval)):
        if interval is not None and not (
            math.isfinite(interval) and interval > 0
        ):
            raise UsageError(
                f"{flag} wants a finite interval > 0 seconds, not {interval}"
            )
    if args.max_retries < 0:
        raise UsageError(
            f"--max-retries wants a count >= 0, not {args.max_retries}"
        )
    if args.resume and not args.workdir:
        raise UsageError(
            "--resume requires --workdir (a checkpoint can only live in a"
            " directory that survives the run)"
        )
    try:
        if args.spec:
            from repro.checkers.spec import SpecError, load_fsm_specs

            try:
                fsms = [
                    fsm for path in args.spec for fsm in load_fsm_specs(path)
                ]
                fsms_by_type(fsms)  # Grapple's check, before any output
            except (SpecError, FsmError) as exc:
                raise UsageError(f"bad --spec: {exc}") from None
            checkers = [Checker(fsm.name, fsm) for fsm in fsms]
        else:
            checkers = _named_checkers(args.checkers)
        subject_name, source = _gather_sources(args.file)
    except OSError as exc:
        raise UsageError(
            f"cannot read {exc.filename}: {exc.strerror}"
        ) from None
    if args.workdir:
        _make_workdir(args.workdir)
    if args.profile:
        # --profile is the bundle: trace + run report + gauge sampler,
        # with conventional filenames unless the dedicated flags chose.
        if not args.trace:
            args.trace = "trace.json"
        if not args.metrics_json:
            args.metrics_json = "run-report.json"
    from repro.obs.trace import TraceRecorder

    # The run's one timer; it keeps Chrome events only under --trace.
    recorder = TraceRecorder(chrome=bool(args.trace))
    sampler = None
    if args.profile:
        from repro.obs.profile import ResourceSampler

        sampler = ResourceSampler(interval=args.sample_interval)
    fault_plan = None
    if args.fault_plan:
        from repro.faults import FaultPlan, FaultPlanError

        try:
            fault_plan = FaultPlan.parse(args.fault_plan)
        except FaultPlanError as exc:
            raise UsageError(f"bad --fault-plan: {exc}") from None
    options = GrappleOptions(
        unroll=args.unroll,
        reduce=args.reduce,
        engine=EngineOptions(
            memory_budget=budget_bytes,
            enable_cache=not args.no_cache,
            trace=recorder,
            heartbeat=args.heartbeat,
            sampler=sampler,
            workdir=args.workdir,
            resume=args.resume,
            max_retries=args.max_retries,
            fault_plan=fault_plan,
        ),
    )
    if args.lint:
        from repro.sa.lint import run_lint_files

        try:
            lint_report = run_lint_files(
                source, fsms=[c.fsm for c in checkers], unroll=args.unroll
            )
        except ParseError as exc:
            raise _unparsable(args.file, exc) from None
        print(lint_report.summary(), file=sys.stderr)
    from repro.engine.checkpoint import CheckpointMismatch

    # A batch check discards no cyclic garbage (DESIGN §17), so the
    # cycle collector's ~2 000 passes over a hadoop-sized run free
    # nothing: run without it and hand the caller's setting back.
    collecting = gc.isenabled()
    gc.disable()
    try:
        run = Grapple(source, [c.fsm for c in checkers], options).run()
    except CheckpointMismatch as exc:
        print(f"repro: cannot resume: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        raise _unparsable(args.file, exc) from None
    except TooBranchyError as exc:
        raise UsageError(str(exc)) from None
    finally:
        if sampler is not None:
            sampler.stop()
        # After the sampler's GC watch is gone.  Every survivor of the
        # run is still in the young generation, so the first allocation
        # with the collector back on would pay a pass over all of them
        # that frees nothing: freeze + unfreeze moves them to the oldest
        # generation instead and leaves no permanent generation behind
        # (a caller's own frozen objects stay frozen).
        if collecting:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()
    if args.trace:
        recorder.export(args.trace)
        print(
            f"trace: {len(recorder.events)} events -> {args.trace}",
            file=sys.stderr,
        )
    if args.metrics_json or args.stats:
        report = run.run_report(
            subject=subject_name,
            telemetry=sampler.timeseries() if sampler is not None else None,
        )
    if args.metrics_json:
        import json

        with open(args.metrics_json, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
        print(f"run report -> {args.metrics_json}", file=sys.stderr)
    print(run.report.summary())
    if args.stats:
        print()
        print(_stats_text(report))
    return 1 if run.report.warnings else 0


def _stats_text(report: dict) -> str:
    """``check --stats``: a text view of the run report."""
    from repro.sa.reduce import ReductionStats

    c, g = report["counters"], report["gauges"]
    lines = [
        f"vertices            : {g['vertices']}",
        f"edges before/after  : {g['edges_before']} / {g['edges_after']}",
        f"partitions          : {g['final_partitions']}",
        f"pairs processed/skipped : {c['pairs_processed']}"
        f" / {c['pairs_skipped']} ({c['pairs_delta_seeded']} delta-seeded)",
        f"compositions tried  : {c['compositions_tried']}",
        f"constraints solved  : {c['constraints_solved']}",
        f"constraint queries  : {c['constraint_queries']}"
        f" ({c['cache_hits']} cache hits)",
        f"cache hit rate      : {g['cache_hit_rate']:.0%}",
        f"pending rows        : {c['pending_rows']}",
        f"partition files written : {c['partition_writes']}"
        f" ({c['partition_bytes_written']} bytes)",
        f"join batches/probes : {c['join_batches']} / {c['join_probes']}",
        f"feasibility groups  : {c['feasibility_groups']}"
        f" ({c['group_hits']} group hits)",
    ]
    if "reduction" in report:
        summary = ReductionStats(**report["reduction"]).summary()
        lines.append(f"reduction           : {summary}")
    if "scopes" in report:
        scopes = report["scopes"]
        lines.append(
            f"scope resolution    : {scopes['scope_resolutions']}"
            f" resolved across {scopes['files']} files"
            f" ({scopes['unresolved_refs']} extern/unresolved,"
            f" {scopes['ambiguous_refs']} ambiguous)"
        )
    timing, breakdown = report["timing"], report["breakdown"]
    slowest = sorted(
        report["spans"].items(), key=lambda item: -item[1]["self_s"]
    )[:5]
    lines += [
        f"preprocess/closure  : {timing['preprocess_s']:.2f}s"
        f" / {timing['computation_s']:.2f}s",
        "closure breakdown   : " + " · ".join(
            f"{key} {share:.0%}" for key, share in breakdown.items()
        ),
        "slowest spans (self): " + " · ".join(
            f"{name} {row['self_s']:.2f}s" for name, row in slowest
        ),
        f"total time          : {timing['total_s']:.2f}s",
        f"peak rss            : {g['peak_rss_mb']:.1f} MiB",
    ]
    return "\n".join(lines)


def cmd_subjects(_args) -> int:
    """``repro subjects``: list the built-in synthetic subjects."""
    from repro.workloads.multifile import MULTIFILE_PROFILES
    from repro.workloads.subjects import SUBJECT_PROFILES

    print(f"{'name':<12}{'version':<9}{'target LoC':>11}  description")
    for name, profile in SUBJECT_PROFILES.items():
        print(
            f"{name:<12}{profile.version:<9}{profile.target_loc:>11}"
            f"  {profile.description}"
        )
    for name, mf_profile in MULTIFILE_PROFILES.items():
        print(
            f"{name:<12}{'multi':<9}{mf_profile.target_loc:>11}"
            f"  {mf_profile.description}"
        )
    return 0


def _seed_summary(seeds) -> str:
    tp = sum(1 for s in seeds if s.expectation == "tp")
    fp = sum(1 for s in seeds if s.expectation == "fp")
    return f"seeded: {len(seeds)} patterns ({tp} TP, {fp} FP)"


def cmd_generate(args) -> int:
    """``repro generate``: emit a synthetic subject's source."""
    from repro.workloads import build_subject
    from repro.workloads.multifile import (
        MULTIFILE_PROFILES,
        build_multifile_subject,
    )

    if not (math.isfinite(args.scale) and args.scale > 0):
        raise UsageError(
            f"--scale wants a finite factor > 0, not {args.scale}"
        )
    if args.name in MULTIFILE_PROFILES:
        subject = build_multifile_subject(args.name, scale=args.scale)
        if args.output:
            os.makedirs(args.output, exist_ok=True)
            for path in sorted(subject.sources):
                with open(os.path.join(args.output, path), "w") as f:
                    f.write(subject.sources[path])
            print(
                f"wrote {subject.loc} lines across"
                f" {len(subject.sources)} files to {args.output}/",
                file=sys.stderr,
            )
        else:
            for path in sorted(subject.sources):
                print(f"// ---- {path} ----")
                print(subject.sources[path])
        print(_seed_summary(subject.seeds), file=sys.stderr)
        return 0

    try:
        subject = build_subject(args.name, scale=args.scale)
    except KeyError as exc:  # the message lists the known subjects
        raise UsageError(exc.args[0]) from None
    if args.output:
        with open(args.output, "w") as f:
            f.write(subject.source)
        print(f"wrote {subject.loc} lines to {args.output}", file=sys.stderr)
    else:
        print(subject.source)
    print(_seed_summary(subject.seeds), file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    """``repro serve``: the incremental analysis daemon."""
    import json

    from repro.obs.trace import TraceRecorder
    from repro.serve import Server, ServeEngine

    recorder = TraceRecorder(chrome=bool(args.trace))
    _check_unroll(args.unroll)
    if not (math.isfinite(args.poll) and args.poll > 0):
        # 0 would make the listening socket non-blocking.
        raise UsageError(
            f"--poll wants a finite cadence > 0 seconds, not {args.poll}"
        )
    checkers = _named_checkers(args.checkers)
    # Before the engine touches the workdir: a mistyped workspace would
    # otherwise read as every known file removed.
    if not os.path.isdir(args.workspace):
        raise UsageError(f"workspace {args.workspace!r} is not a directory")
    _make_workdir(args.workdir)
    try:
        engine = ServeEngine(
            args.workspace, args.workdir, [c.fsm for c in checkers],
            unroll=args.unroll, reduce=args.reduce, trace=recorder,
        )
        if args.once:
            fragment = engine.scan()
            doc = engine.report() if args.report else fragment
            json.dump(doc, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
            return 0
        server = Server(engine, socket_path=args.socket, poll=args.poll)
        return server.run()
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        raise
    except OSError as exc:
        # The daemon's own files -- its state, its socket -- failed it
        # (a workspace file it cannot read or write is an edit's error).
        path = exc.filename2 or exc.filename or args.workdir
        raise UsageError(f"cannot use {path}: {exc.strerror}") from None
    finally:
        if args.trace:
            recorder.export(args.trace)


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "check": cmd_check,
        "subjects": cmd_subjects,
        "generate": cmd_generate,
        "serve": cmd_serve,
    }
    try:
        code = handlers[args.command](args)
        # Flush inside the guard: output buffered for a reader that went
        # away (``repro check ... | head``) would otherwise fail in the
        # interpreter's exit-time flush, past any handler.
        sys.stdout.flush()
    except UsageError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Give that exit-time flush somewhere to write, and report what a
        # shell reports for a SIGPIPE death (128 + 13).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
