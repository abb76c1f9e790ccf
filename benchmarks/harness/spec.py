"""What the benchmark measures: workloads, metrics, bounds, predictions.

This module is the single declaration the runner, ``compare``, the README
tables and ``BENCHMARK.json`` are derived from.  Nothing here imports the
program under test.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

PAPER_CHECKERS = "io,lock,exception,socket"
ALL_CHECKERS = PAPER_CHECKERS + ",taint,order,iterator,lockdep"

#: How long one run measures (``--seconds`` default; BENCHMARK.json
#: ``run_seconds``).  Sized so 4 + 22 x 4 runs fit the driver's cap.
RUN_SECONDS = 20


def validate_name(name: str) -> str:
    """Metric/workload names are ``[A-Za-z0-9_.-]+``, at most 64 long."""
    if not isinstance(name, str) or NAME_RE.fullmatch(name) is None:
        raise ValueError(f"invalid benchmark name {name!r}")
    return name


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "check" | "serve"
    subject: str  # "hadoop" | "gateway"
    scale: float
    smoke_scale: float
    check_args: tuple
    why: str


WORKLOADS = (
    Workload(
        "hadoop-inmem", "check", "hadoop", 4, 0.5,
        ("--memory-budget", "64"),
        "budget never binds (4 partitions): kernel, columnar store,"
        " encoding and frontend do the work; partition I/O does almost none",
    ),
    Workload(
        "hadoop-ooc", "check", "hadoop", 4, 0.5,
        ("--memory-budget", "0.25"),
        "same file under a 0.25 MiB budget (>=16 partitions, hundreds of"
        " pairs): partition load/save/split, serialize, prefetch and spill"
        " dominate",
    ),
    Workload(
        "gateway-cold", "check", "gateway", 64, 4,
        ("--checkers", ALL_CHECKERS),
        "512 files in 64 independent clusters: lexer/parser/scope linking"
        " and fixed per-phase costs show, kernel batch efficiency does not",
    ),
    Workload(
        "gateway-edits", "serve", "gateway", 16, 2,
        ("--checkers", ALL_CHECKERS),
        "real serve daemon, one closed-loop client, 280 seeded ops"
        " (200 pad, 40 toggle, 40 no-op scan): fixed per-edit costs"
        " dominate, closure volume is small",
    ),
)

#: Ops per serve session (full / --smoke).
SERVE_OPS = 280
SMOKE_SERVE_OPS = 30


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None  # allowed worsening (share of the base); None = per-layer
    meaning: str
    #: Per-layer only: which end-to-end metric it should move, and where.
    moves: str = ""
    #: "harness" (timed by our wrappers/spans) or "program" (a counter the
    #: program exposes through EngineStats / the run report).
    source: str = "harness"


#: Times are seconds at reference host speed (speed.py); bounds are sized
#: to the spreads measured over ten seeds on the 2-vCPU authoring host
#: (README, "Sizing"): the time bound is set by hadoop-ooc, whose cost
#: varies ~10% with the generated program.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "generate the sources from the seed and write the input files"
           " (median of the run's repeated set-ups)"),
    Metric("verdict_s", "s", "lower", 0.25,
           "time from nothing to a full verdict: spawn->exit of the"
           " `repro check` child; on gateway-edits, daemon spawn -> first"
           " ping answered (the socket binds only after the cold scan)"),
    Metric("reverdict_ms", "ms", "lower", 0.25,
           "time to an up-to-date verdict after one file changes:"
           " gateway-edits = socket round trip, p50 over the pad+toggle"
           " edits; check workloads have no incremental path, so an edit"
           " costs a full re-check (the verdict_s samples, in ms)"),
    Metric("peak_rss_mb", "MiB", "lower", 0.10,
           "ru_maxrss (os.wait4) of the process that gave the verdicts:"
           " the check child, or the daemon at exit after all ops"),
)


def _layer(name, unit, better, meaning, moves, source="harness"):
    return Metric(name, unit, better, None, meaning, moves, source)


_CHECK_ALL = "verdict_s on gateway-cold first, hadoop-* second; reverdict_ms on gateway-edits"
_CLOSURE = "verdict_s on hadoop-inmem (most), hadoop-ooc (less); ~nothing on gateway-edits"
_STORE = "verdict_s and peak_rss_mb on hadoop-ooc only; prediction on hadoop-inmem: no change"
_EDIT = "reverdict_ms on gateway-edits; no check workload should move"

PER_LAYER = (
    # -- frontend --------------------------------------------------------
    _layer("lang.lexer.time_s", "s", "lower", "self time in tokenize", _CHECK_ALL),
    _layer("lang.lexer.tokens", "count", "lower", "tokens produced", _CHECK_ALL),
    _layer("lang.parser.time_s", "s", "lower", "self time in parse_program/parse_module", _CHECK_ALL),
    _layer("lang.parser.functions", "count", "lower", "functions parsed", _CHECK_ALL),
    _layer("sa.scopes.time_s", "s", "lower", "scope artifacts, resolution and linking (load_modules, build_artifact)", _CHECK_ALL),
    _layer("sa.scopes.resolutions", "count", "lower", "references resolved", _CHECK_ALL, "program"),
    _layer("sa.scopes.cache_hits", "count", "higher", "scope-artifact cache hits", _EDIT, "program"),
    _layer("sa.scopes.cache_misses", "count", "lower", "scope-artifact cache misses (artifacts re-derived)", _EDIT, "program"),
    _layer("lang.transform.time_s", "s", "lower", "normalize_calls + unroll_loops + lower_exceptions", _CHECK_ALL),
    _layer("sa.constprop.time_s", "s", "lower", "constant-branch folding", _CHECK_ALL),
    _layer("sa.constprop.branches_folded", "count", "higher", "branches folded away", "shrinks graph.*.edges, so every closure metric after it", "program"),
    _layer("sa.liveness.time_s", "s", "lower", "dead-store elimination", _CHECK_ALL),
    _layer("sa.liveness.dead_stores_removed", "count", "higher", "dead stores removed", "shrinks graph.*.edges, so every closure metric after it", "program"),
    _layer("sa.relevance.time_s", "s", "lower", "FSM-relevance slicing", _CHECK_ALL),
    _layer("cfet.icfet.time_s", "s", "lower", "build_icfet", _CHECK_ALL),
    _layer("lang.callgraph.time_s", "s", "lower", "build_call_graph", _CHECK_ALL),
    _layer("lang.types.time_s", "s", "lower", "infer_object_vars", _CHECK_ALL),
    _layer("graph.cloning.time_s", "s", "lower", "enumerate_clones", _CHECK_ALL),
    _layer("graph.cloning.clones", "count", "lower", "context clones enumerated", _CHECK_ALL),
    # -- graph build -----------------------------------------------------
    _layer("graph.alias_graph.time_s", "s", "lower", "build_alias_graph", _CHECK_ALL),
    _layer("graph.alias_graph.edges", "count", "lower", "alias-graph input edges", _CLOSURE),
    _layer("graph.dataflow_graph.time_s", "s", "lower", "build_dataflow_graph", _CHECK_ALL),
    _layer("graph.dataflow_graph.edges", "count", "lower", "dataflow-graph input edges (before cf compression)", _CLOSURE),
    _layer("sa.reduce.time_s", "s", "lower", "compress_cf_chains", _CHECK_ALL),
    _layer("sa.reduce.cf_edges_removed", "count", "higher", "cf edges removed by chain compression", "shrinks the dataflow closure on every workload", "program"),
    # -- closure ---------------------------------------------------------
    _layer("engine.closure.time_s", "s", "lower", "both GraphEngine.run calls, inclusive", _CLOSURE),
    _layer("engine.closure.pairs", "count", "lower", "partition pairs processed", _STORE, "program"),
    _layer("engine.closure.edges_before", "count", "lower", "closure input edges (both phases)", _CLOSURE, "program"),
    _layer("engine.closure.edges_after", "count", "lower", "closure output edges (both phases)", _CLOSURE, "program"),
    _layer("engine.closure.compositions_tried", "count", "lower", "edge compositions attempted", _CLOSURE, "program"),
    _layer("engine.computation.time_s", "s", "lower", "GraphEngine's own self time: serial loop, scheduling, pair seeding", _CLOSURE),
    _layer("engine.kernel.time_s", "s", "lower", "self time in kernel.drain (inserts and memo probes included)", _CLOSURE),
    _layer("engine.kernel.batches", "count", "lower", "candidate chunks cut for grouped feasibility", _CLOSURE, "program"),
    _layer("engine.kernel.batch_fill", "count", "higher", "average candidates per chunk", _CLOSURE, "program"),
    _layer("engine.columnar.time_s", "s", "lower", "EdgeColumns encode/from_file/compact (coarse calls only)", _STORE),
    _layer("engine.partition.time_s", "s", "lower", "PartitionStore initialize/load/save/split/append_delta/flush self time", _STORE),
    _layer("engine.partition.loads", "count", "lower", "PartitionStore.load calls", _STORE),
    _layer("engine.partition.saves", "count", "lower", "PartitionStore.save calls", _STORE),
    _layer("engine.partition.splits", "count", "lower", "PartitionStore.split calls", _STORE),
    _layer("engine.partition.final", "count", "lower", "partitions at the end (both phases)", _STORE, "program"),
    _layer("engine.serialize.time_s", "s", "lower", "encode/parse/frame/atomic-write self time, all threads", _STORE + "; reverdict_ms via fsyncs"),
    _layer("engine.serialize.bytes_encoded", "count", "lower", "bytes produced by encode_columnar", _STORE),
    _layer("engine.serialize.bytes_parsed", "count", "lower", "bytes consumed by parse_columnar", _STORE),
    _layer("engine.serialize.fsyncs", "count", "lower", "os.fsync calls in the process", _EDIT + "; verdict_s on hadoop-ooc"),
    _layer("engine.io_pipeline.wait_s", "s", "lower", "engine-thread self time in prefetch take/schedule and spill append/flush/close", _STORE),
    _layer("engine.io_pipeline.prefetch_hits", "count", "higher", "loads served by the background reader", _STORE, "program"),
    _layer("engine.io_pipeline.prefetch_misses", "count", "lower", "loads that fell back to a synchronous read", _STORE, "program"),
    _layer("engine.io_pipeline.spill_bytes", "count", "lower", "bytes written through the spill writer", _STORE, "program"),
    _layer("engine.scheduling.pairs_skipped", "count", "higher", "eligible pairs retired without processing", _STORE, "program"),
    _layer("cfet.encoding.time_s", "s", "lower", "self time in decode_constraint", _CLOSURE),
    _layer("engine.cache.queries", "count", "lower", "feasibility queries", _CLOSURE, "program"),
    _layer("engine.cache.hit_rate", "ratio", "higher", "feasibility queries answered from a memo", _CLOSURE, "program"),
    _layer("smt.solver.time_s", "s", "lower", "Solver.check/check_batch/get_model and smt-solve spans", _CLOSURE),
    _layer("smt.solver.solves", "count", "lower", "solver invocations", _CLOSURE, "program"),
    # -- verdict ---------------------------------------------------------
    _layer("checkers.report.time_s", "s", "lower", "extract_report, witnesses included", _CHECK_ALL),
    _layer("checkers.report.warnings", "count", "lower", "warnings reported", "none (correctness, not speed)", "program"),
    _layer("cli.startup_s", "s", "lower", "wall of `python -m repro subjects`: interpreter + imports + dispatch", "a constant inside every verdict_s; ~1/5 of gateway-cold"),
    _layer("pipeline.other_s", "s", "lower", "unattributed remainder: glue in cli/Grapple.run/compile_source/run_*_phase and any missing wrap target", "every workload"),
    # -- serve -----------------------------------------------------------
    _layer("serve.pipeline.time_s", "s", "lower", "Grapple.run under the edits, inclusive", _EDIT),
    _layer("serve.strata_rechecked", "count", "lower", "strata re-run across the op sequence", _EDIT, "program"),
    _layer("engine.incremental.time_s", "s", "lower", "IncrementalClosure.apply/components", _EDIT),
    _layer("engine.incremental.edges_rederived", "count", "lower", "file-graph closure pairs re-derived", _EDIT, "program"),
    _layer("serve.state_write.time_s", "s", "lower", "ServeEngine._save_state, inclusive (JSON encode + atomic write)", _EDIT + "; serve.restart_s"),
    _layer("serve.state_write.bytes", "count", "lower", "serve-state.json bytes written", _EDIT),
    _layer("serve.cold_scan_s", "s", "lower", "ServeEngine cold scan, in process", "verdict_s on gateway-edits"),
    _layer("serve.pad_p50_ms", "ms", "lower", "socket round trip of a pad edit, p50", _EDIT),
    _layer("serve.toggle_p50_ms", "ms", "lower", "socket round trip of a toggle edit (adds/retracts one warning), p50", _EDIT),
    _layer("serve.edit_p90_ms", "ms", "lower", "socket round trip over pad+toggle edits, p90", _EDIT),
    _layer("serve.noop_scan_ms", "ms", "lower", "socket round trip of a no-op scan, p50", "the pure stat-scan path; not reverdict_ms"),
    _layer("serve.restart_s", "s", "lower", "`serve --once` on the persisted workdir (must recheck 0 strata)", "serve.state_write trades against it"),
    _layer("serve.socket_overhead_ms", "ms", "lower", "socket round trip p50 minus in-process ServeEngine.edit p50", _EDIT),
    _layer("serve.other_ms", "ms", "lower", "ServeEngine's own self time per op (stat scan, digests, diffing, fragment)", _EDIT),
    # -- harness ---------------------------------------------------------
    _layer("harness.trace_overhead", "ratio", "lower", "traced process wall / untraced process wall - 1", "none; must stay <= 0.10"),
    _layer("harness.layer_coverage", "ratio", "higher", "sum of attributed self times / traced wall", "none; must stay >= 0.95"),
    _layer("harness.wraps_missing", "count", "lower", "declared wrap targets that no longer exist (their layers read 0)", "none"),
)

for _m in END_TO_END + PER_LAYER:
    validate_name(_m.name)
for _w in WORKLOADS:
    validate_name(_w.name)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; have {[w.name for w in WORKLOADS]}")


def benchmark_json() -> dict:
    """The root ``BENCHMARK.json`` document, exactly the contract's keys."""
    return {
        "command": ["python3", "-m", "benchmarks.harness"],
        "paths": ["benchmarks/harness"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
