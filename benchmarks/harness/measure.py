"""One run of one workload: set-up, measurement, verdict checks, metrics.

``--trace 0`` measures the end-to-end metrics through the real entry
points; ``--trace 1`` does one untraced and one traced round and reports
the per-layer metrics.  A wrong verdict counts as a failed operation;
it never aborts the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import shutil
import time
from dataclasses import asdict, dataclass, field

from . import inputs as inp
from . import runner, spec
from .layers import OTHER, percentile
from .speed import Normalizer

#: Set-ups per run: at least MIN, then until SETUP_SECONDS are spent (a
#: gateway workspace takes 0.05-0.3 s to write, mostly file-system luck),
#: at most MAX.  ``setup_s`` is their median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 12, 1.5
STARTUP_REPS = 3


@dataclass
class Result:
    workload: str
    seed: int
    trace: int
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> value
    samples: dict = field(default_factory=dict)  # name -> per-round values
    facts: dict = field(default_factory=dict)

    def fail(self, problems, context: str = "", ops: int = 1) -> None:
        """Count ``ops`` failed operations if there is any problem."""
        if problems:
            self.failed += ops
            self.failures.extend(f"{context}{p}" for p in problems)


def run(workload: spec.Workload, seed: int, seconds: float, trace: int,
        smoke: bool, tmp: str) -> Result:
    result = Result(workload.name, seed, trace)
    load_start = os.getloadavg()[0]
    measure = {
        ("check", 0): _check_untraced, ("check", 1): _check_traced,
        ("serve", 0): _serve_untraced, ("serve", 1): _serve_traced,
    }[workload.kind, trace]
    measure(workload, result, seconds, smoke, tmp)
    load_end = os.getloadavg()[0]
    cpus = len(os.sched_getaffinity(0))
    result.facts.update(
        load_1min=[load_start, load_end],
        noisy=max(load_start, load_end) > cpus,
    )
    return result


def _setup(workload, result, smoke, tmp, repeat: bool) -> list:
    """Generate and write the inputs, several times when ``repeat``.

    Set-up ``k`` draws sub-seed ``k % SETUP_MIN``, so one run measures a
    few different programs of the same shape: the closure cost of a
    generated program varies by +-15% with the seed (partition splits are
    chaotic), and the median over sub-seeds is what stays comparable
    between runs.  Set-ups past the first SETUP_MIN rewrite the same
    three directories: creating hundreds of files costs 1x-4x depending
    on the file system's mood, rewriting them is steady.
    """
    import repro.workloads  # noqa: F401  importing the generators is not set-up work

    made, times, factors = [], [], []
    started = time.perf_counter()
    while True:
        slot = len(times) % SETUP_MIN
        norm = Normalizer()
        start = time.perf_counter()
        inputs = inp.write_inputs(
            workload, result.seed * 100 + slot, smoke, os.path.join(tmp, f"in{slot}")
        )
        norm.segment(time.perf_counter() - start)
        times.append(norm.norm_s)
        factors.append(norm.factor)
        if len(made) < SETUP_MIN:
            made.append(inputs)
        spent = time.perf_counter() - started
        if not repeat or len(times) >= SETUP_MAX or (
                len(times) >= SETUP_MIN and (smoke or spent >= SETUP_SECONDS)):
            break
    result.samples["setup_s"] = times
    result.facts.update(loc=made[0].loc, host_factor=factors)
    return made


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- repro check ------------------------------------------------------------------


def _check_untraced(workload, result, seconds, smoke, tmp) -> None:
    made = _setup(workload, result, smoke, tmp, repeat=True)
    children = []
    started = time.perf_counter()
    while True:
        inputs = made[len(children) % len(made)]
        child = runner.run_child(
            runner.check_argv(workload, inputs.path), os.path.join(tmp, "check.out")
        )
        children.append(child)
        result.attempted += 1
        result.fail(
            inp.check_verdict(inputs.truth, child.stdout, child.returncode),
            f"check #{len(children)}: ",
        )
        # The first input's verdict: hadoop-ooc must match hadoop-inmem.
        result.facts.setdefault("stdout_sha256", _sha(child.stdout))
        if time.perf_counter() - started >= seconds:
            break
    result.samples.update(
        verdict_s=[c.norm_s for c in children],
        reverdict_ms=[c.norm_s * 1e3 for c in children],
        peak_rss_mb=[c.rss_mb for c in children],
    )
    result.facts.update(
        raw_wall_s=[c.wall_s for c in children],
        host_factor=result.facts["host_factor"] + [c.factor for c in children],
    )
    _medians(result)


def _medians(result) -> None:
    for name, values in result.samples.items():
        result.metrics[name] = statistics.median(values)


def _check_traced(workload, result, seconds, smoke, tmp) -> None:
    inputs = _setup(workload, result, smoke, tmp, repeat=False)[0]
    argv = runner.check_argv(workload, inputs.path)
    plain = runner.run_child(argv, os.path.join(tmp, "plain.out"))
    out = os.path.join(tmp, "traced.json")
    trace_file = _trace_path(workload, result.seed)
    traced = runner.run_child(
        ["-m", "benchmarks.harness.inproc", "check", "--trace", "1",
         "--trace-file", trace_file, "--out", out, "--", *argv[2:]],
        os.path.join(tmp, "traced.out"),
    )
    result.attempted += 2
    for label, child in (("untraced", plain), ("traced", traced)):
        result.fail(
            inp.check_verdict(inputs.truth, child.stdout, child.returncode),
            f"{label} check: ",
        )
    if plain.stdout != traced.stdout:
        result.fail(["traced verdict differs from the untraced one"])
    doc = _load(out)
    metrics = layer_metrics(doc, doc.get("wall_s", 0.0))
    metrics["harness.trace_overhead"] = traced.norm_s / plain.norm_s - 1
    metrics["cli.startup_s"] = _startup(tmp, smoke)
    result.metrics = metrics
    result.facts.update(trace_file=trace_file, missing=doc.get("missing", []))


def _startup(tmp, smoke) -> float:
    walls = [
        runner.run_child(["-m", "repro", "subjects"],
                         os.path.join(tmp, "startup.out")).norm_s
        for _ in range(1 if smoke else STARTUP_REPS)
    ]
    return statistics.median(walls)


def _trace_path(workload, seed) -> str:
    """Where the Chrome trace of the traced round is kept (git-ignored)."""
    os.makedirs(os.path.join(runner.ROOT, runner.RESULTS), exist_ok=True)
    return os.path.join(runner.RESULTS, f"trace-{workload.name}-seed{seed}.json")


def _load(path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


# -- repro serve ------------------------------------------------------------------


def _serve_plan(workload, result, smoke, tmp, repeat):
    inputs = _setup(workload, result, smoke, tmp, repeat)[0]
    n = spec.SMOKE_SERVE_OPS if smoke else spec.SERVE_OPS
    return inputs, inp.plan_ops(inputs.sources, result.seed, n)


def _scratch_report(workload, inputs, ops, result, tmp) -> list:
    """From-scratch ``repro check`` of the final workspace: the oracle the
    daemon's accumulated report must equal (and itself judged against
    the seeds -- every leak was toggled back out)."""
    final = os.path.join(tmp, "final")
    os.makedirs(final)
    for name, text in inp.final_sources(inputs.sources, ops).items():
        with open(os.path.join(final, name), "w") as f:
            f.write(text)
    child = runner.run_child(
        runner.check_argv(workload, final), os.path.join(tmp, "scratch.out")
    )
    result.attempted += 1
    result.fail(
        inp.check_verdict(inputs.truth, child.stdout, child.returncode),
        "from-scratch check: ",
    )
    return sorted(inp.parse_warnings(child.stdout))


def _session(workload, inputs, ops, result, tmp, index) -> runner.Session:
    rundir = os.path.join(tmp, f"session{index}")
    os.makedirs(rundir)
    session = runner.serve_session(workload, inputs, ops, rundir)
    result.attempted += session.attempted
    result.fail(session.failures, f"session {index}: ", ops=session.failed)
    result.facts.setdefault("host_factor", []).extend(session.factors.values())
    return session


def _serve_untraced(workload, result, seconds, smoke, tmp) -> None:
    inputs, ops = _serve_plan(workload, result, smoke, tmp, repeat=True)
    sessions = []
    started = time.perf_counter()
    while True:
        sessions.append(_session(workload, inputs, ops, result, tmp, len(sessions)))
        if time.perf_counter() - started >= seconds:
            break
    scratch = _scratch_report(workload, inputs, ops, result, tmp)
    for index, session in enumerate(sessions):
        if session.report != scratch:
            result.fail([f"session {index}: daemon report != from-scratch check"])
    rtts = runner.summarize_rtts(sessions)
    result.samples.update(
        verdict_s=[s.cold_scan_s for s in sessions],
        reverdict_ms=rtts["p50"],
        peak_rss_mb=[s.rss_mb for s in sessions],
    )
    result.samples = {k: v for k, v in result.samples.items() if v}
    _medians(result)
    result.facts["ops_per_session"] = len(ops)


def _serve_traced(workload, result, seconds, smoke, tmp) -> None:
    inputs, ops = _serve_plan(workload, result, smoke, tmp, repeat=False)
    session = _session(workload, inputs, ops, result, tmp, 0)
    scratch = _scratch_report(workload, inputs, ops, result, tmp)
    if session.report != scratch:
        result.fail(["daemon report != from-scratch check"])
    docs = {}
    trace_file = _trace_path(workload, result.seed)
    for traced in (0, 1):
        rundir = os.path.join(tmp, f"inproc{traced}")
        ws = os.path.join(rundir, "ws")
        os.makedirs(rundir)
        shutil.copytree(inputs.path, ws)
        plan = os.path.join(rundir, "plan.json")
        with open(plan, "w") as f:
            json.dump({
                "workspace": os.path.relpath(ws, runner.ROOT),
                "workdir": os.path.relpath(os.path.join(rundir, "wd"), runner.ROOT),
                "checkers": workload.check_args[1],
                "ops": [asdict(op) for op in ops],
            }, f)
        out = os.path.join(rundir, "result.json")
        child = runner.run_child(
            ["-m", "benchmarks.harness.inproc", "serve", "--trace", str(traced),
             "--trace-file", trace_file, "--plan", plan, "--out", out],
            os.path.join(rundir, "stdout"),
        )
        result.attempted += 1
        doc = docs[traced] = _load(out)
        doc["host_factor"] = child.factor
        if child.returncode != 0 or not doc:
            result.fail([f"in-process serve child (trace {traced}) exit {child.returncode}"])
            continue
        result.fail(doc["failures"], f"in-process (trace {traced}): ")
        result.attempted += len(ops)
        if [tuple(w) for w in doc["report"]] != scratch:
            result.fail([f"in-process (trace {traced}) report != from-scratch check"])
    plain, traced_doc = docs[0], docs[1]
    metrics = layer_metrics(traced_doc, traced_doc.get("wall_s", 0.0))
    if plain.get("wall_s") and traced_doc.get("wall_s"):
        metrics["harness.trace_overhead"] = (
            (traced_doc["wall_s"] / traced_doc["host_factor"])
            / (plain["wall_s"] / plain["host_factor"]) - 1
        )
    rtts = runner.summarize_rtts([session])
    edits = session.edits_ms()
    # In-process times at reference host speed, like the socket ones.
    inproc_edits = [ms / plain["host_factor"]
                    for kind, ms in plain.get("op_ms", []) if kind != "scan"]
    n_ops = max(len(ops), 1)
    metrics.update({
        "serve.strata_rechecked": traced_doc.get("strata_rechecked", 0),
        "serve.cold_scan_s": plain.get("cold_scan_s", 0.0) / plain["host_factor"],
        "serve.pad_p50_ms": _first(rtts["pad_p50"]),
        "serve.toggle_p50_ms": _first(rtts["toggle_p50"]),
        "serve.noop_scan_ms": _first(rtts["scan_p50"]),
        "serve.edit_p90_ms": _first(rtts["p90"]),
        "serve.restart_s": session.restart_s,
        "serve.socket_overhead_ms": (
            percentile(edits, 50) - percentile(inproc_edits, 50)
            if edits and inproc_edits else 0.0
        ),
        "serve.other_ms": traced_doc.get("self", {}).get("serve.engine", 0.0) / n_ops * 1e3,
        "cli.startup_s": _startup(tmp, smoke),
    })
    result.metrics = metrics
    result.facts.update(trace_file=trace_file, missing=traced_doc.get("missing", []))


def _first(values) -> float:
    return values[0] if values else 0.0


# -- per-layer metrics ------------------------------------------------------------

#: metric -> (run-report section, key) for the counters the program exposes.
_PROGRAM = {
    "sa.scopes.resolutions": ("scopes", "scope_resolutions"),
    "sa.scopes.cache_hits": ("scopes", "artifact_cache_hits"),
    "sa.scopes.cache_misses": ("scopes", "artifact_cache_misses"),
    "sa.constprop.branches_folded": ("reduction", "branches_folded"),
    "sa.liveness.dead_stores_removed": ("reduction", "dead_stores_removed"),
    "sa.reduce.cf_edges_removed": ("reduction", "cf_edges_removed"),
    "engine.closure.pairs": ("counters", "pairs_processed"),
    "engine.closure.edges_before": ("gauges", "edges_before"),
    "engine.closure.edges_after": ("gauges", "edges_after"),
    "engine.closure.compositions_tried": ("counters", "compositions_tried"),
    "engine.kernel.batches": ("counters", "kernel_batches"),
    "engine.partition.final": ("gauges", "final_partitions"),
    "engine.io_pipeline.prefetch_hits": ("counters", "prefetch_hits"),
    "engine.io_pipeline.prefetch_misses": ("counters", "prefetch_misses"),
    "engine.io_pipeline.spill_bytes": ("counters", "spill_bytes"),
    "engine.scheduling.pairs_skipped": ("counters", "pairs_skipped"),
    "engine.cache.queries": ("counters", "constraint_queries"),
    "smt.solver.solves": ("counters", "constraints_solved"),
    "engine.incremental.edges_rederived": ("counters", "edges_rederived"),
}

#: metric -> wrap-span name whose call count it is.
_CALLS = {
    "engine.partition.loads": "PartitionStore.load",
    "engine.partition.saves": "PartitionStore.save",
    "engine.partition.splits": "PartitionStore.split",
}

#: metric -> wrap-span name whose inclusive time it is.
_INCLUSIVE = {
    "engine.closure.time_s": "GraphEngine.run",
    "serve.pipeline.time_s": "Grapple.run",
    "serve.state_write.time_s": "ServeEngine._save_state",
}


def layer_metrics(doc: dict, wall_s: float) -> dict:
    """Every per-layer metric from a traced child's result document.

    A layer that recorded nothing (not exercised on this workload, or its
    wrap target is gone) reads 0; ``harness.wraps_missing`` says which.
    """
    self_all = doc.get("self", {})
    self_main = doc.get("self_main", {})
    program = doc.get("program", {})
    counters = doc.get("counters", {})
    metrics = {m.name: 0.0 for m in spec.PER_LAYER}
    for name in metrics:
        if name.endswith(".time_s"):
            metrics[name] = self_all.get(name[: -len(".time_s")], 0.0)
        if name in counters:
            metrics[name] = counters[name]
    for name, (section, key) in _PROGRAM.items():
        metrics[name] = program.get(section, {}).get(key, 0)
    for name, span in _CALLS.items():
        metrics[name] = doc.get("calls", {}).get(span, 0)
    for name, span in _INCLUSIVE.items():
        metrics[name] = doc.get("incl", {}).get(span, 0.0)
    engine = program.get("counters", {})
    if engine.get("kernel_batches"):
        metrics["engine.kernel.batch_fill"] = engine["batch_fill"] / engine["kernel_batches"]
    if engine.get("constraint_queries"):
        metrics["engine.cache.hit_rate"] = engine.get("cache_hits", 0) / engine["constraint_queries"]
    metrics["checkers.report.warnings"] = program.get(
        "warnings", len(doc.get("report", []))
    )
    metrics["engine.io_pipeline.wait_s"] = self_main.get("engine.io_pipeline", 0.0)
    metrics["pipeline.other_s"] = self_main.get(OTHER, 0.0)
    attributed = sum(v for layer, v in self_main.items() if layer != OTHER)
    metrics["harness.layer_coverage"] = attributed / wall_s if wall_s else 0.0
    metrics["harness.wraps_missing"] = len(doc.get("missing", []))
    return metrics
