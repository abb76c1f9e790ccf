"""Layer attribution: timing wrappers and span self-time arithmetic.

The traced round installs a timing wrapper on every callable in
:data:`WRAPS` (a table of ``(module, attribute) -> layer``), runs the
real entry point with the program's own ``TraceRecorder`` switched on,
and folds the wrappers' spans and the program's spans into one list.
A layer's *self time* is its spans' duration minus the part covered by
child spans on the same thread, so the layers sum to the traced wall.

A wrap target that no longer exists is reported in ``missing`` and its
layer simply receives no spans: the time falls through to whatever
encloses it (ultimately ``pipeline.other``), never a crash, so a
refactor of the program does not have to edit the benchmark.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass, field

#: Glue whose self time is the unattributed remainder.
OTHER = "pipeline.other"

#: (module, dotted attribute, layer).  Coarse calls only (<~10^4 per
#: run, decode_constraint being the upper end); anything finer is read
#: from the counters the program already exposes.
WRAPS = (
    ("repro.lang.lexer", "tokenize", "lang.lexer"),
    ("repro.lang.parser", "parse_program", "lang.parser"),
    ("repro.lang.parser", "parse_module", "lang.parser"),
    ("repro.sa.scopes", "load_modules", "sa.scopes"),
    ("repro.sa.scopes", "build_artifact", "sa.scopes"),
    ("repro.lang.transform", "normalize_calls", "lang.transform"),
    ("repro.lang.transform", "unroll_loops", "lang.transform"),
    ("repro.lang.transform", "lower_exceptions", "lang.transform"),
    ("repro.sa.constprop", "fold_constant_branches", "sa.constprop"),
    ("repro.sa.liveness", "eliminate_dead_stores", "sa.liveness"),
    ("repro.sa.relevance", "compute_relevance", "sa.relevance"),
    ("repro.cfet.icfet", "build_icfet", "cfet.icfet"),
    ("repro.lang.callgraph", "build_call_graph", "lang.callgraph"),
    ("repro.lang.types", "infer_object_vars", "lang.types"),
    ("repro.graph.cloning", "enumerate_clones", "graph.cloning"),
    ("repro.graph.alias_graph", "build_alias_graph", "graph.alias_graph"),
    ("repro.graph.dataflow_graph", "build_dataflow_graph", "graph.dataflow_graph"),
    ("repro.sa.reduce", "compress_cf_chains", "sa.reduce"),
    ("repro.engine.computation", "GraphEngine.run", "engine.computation"),
    ("repro.engine.kernel", "drain", "engine.kernel"),
    ("repro.engine.columnar", "EdgeColumns.encode", "engine.columnar"),
    ("repro.engine.columnar", "EdgeColumns.from_file", "engine.columnar"),
    ("repro.engine.columnar", "EdgeColumns.compact", "engine.columnar"),
    ("repro.engine.partition", "PartitionStore.initialize", "engine.partition"),
    ("repro.engine.partition", "PartitionStore.load", "engine.partition"),
    ("repro.engine.partition", "PartitionStore.save", "engine.partition"),
    ("repro.engine.partition", "PartitionStore.split", "engine.partition"),
    ("repro.engine.partition", "PartitionStore.append_delta", "engine.partition"),
    ("repro.engine.partition", "PartitionStore.flush", "engine.partition"),
    ("repro.engine.partition", "PartitionStore.prefetch_schedule", "engine.partition"),
    ("repro.engine.serialize", "encode_columnar", "engine.serialize"),
    ("repro.engine.serialize", "parse_columnar", "engine.serialize"),
    ("repro.engine.serialize", "encode_partition", "engine.serialize"),
    ("repro.engine.serialize", "decode_partition", "engine.serialize"),
    ("repro.engine.serialize", "encode_frame", "engine.serialize"),
    ("repro.engine.serialize", "split_frames", "engine.serialize"),
    ("repro.engine.serialize", "atomic_write_bytes", "engine.serialize"),
    ("repro.engine.io_pipeline", "PrefetchReader.schedule", "engine.io_pipeline"),
    ("repro.engine.io_pipeline", "PrefetchReader.take", "engine.io_pipeline"),
    ("repro.engine.io_pipeline", "PrefetchReader.close", "engine.io_pipeline"),
    ("repro.engine.io_pipeline", "SpillWriter.append", "engine.io_pipeline"),
    ("repro.engine.io_pipeline", "SpillWriter.flush", "engine.io_pipeline"),
    ("repro.engine.io_pipeline", "SpillWriter.close", "engine.io_pipeline"),
    ("repro.cfet.encoding", "decode_constraint", "cfet.encoding"),
    ("repro.smt.solver", "Solver.check", "smt.solver"),
    ("repro.smt.solver", "Solver.check_batch", "smt.solver"),
    ("repro.smt.solver", "Solver.get_model", "smt.solver"),
    ("repro.analysis.pipeline", "extract_report", "checkers.report"),
    ("repro.engine.incremental", "IncrementalClosure.apply", "engine.incremental"),
    ("repro.engine.incremental", "IncrementalClosure.components", "engine.incremental"),
    ("repro.serve", "ServeEngine._save_state", "serve.state_write"),
    ("repro.serve", "ServeEngine.scan", "serve.engine"),
    ("repro.serve", "ServeEngine.edit", "serve.engine"),
    ("repro.analysis.pipeline", "Grapple.run", OTHER),
    ("repro.analysis.frontend", "compile_source", OTHER),
    ("repro.analysis.alias", "run_alias_phase", OTHER),
    ("repro.analysis.dataflow", "run_dataflow_phase", OTHER),
    ("os", "fsync", None),  # counted, not timed as a layer
)

#: The program's own span names -> layer.  ``sa-*`` spans enclose calls
#: we also wrap; same layer, so the nesting costs nothing.
PROGRAM_SPANS = {
    "closure": "engine.computation",
    "iteration": "engine.computation",
    "pair-compute": "engine.computation",
    "repartition": "engine.partition",
    "prefetch": "engine.io_pipeline",
    "spill": "engine.io_pipeline",
    "smt-solve": "smt.solver",
    "sa-scopes": "sa.scopes",
    "sa-fold": "sa.constprop",
    "sa-dse": "sa.liveness",
    "sa-relevance": "sa.relevance",
    "sa-compress": "sa.reduce",
    "incr-diff": "serve.engine",
    "incr-join": "serve.engine",
    "incr-retract": "serve.engine",
}


#: Counter hooks keyed by wrap attribute: (counter, fn(args, result)).
COUNTERS = {
    "tokenize": ("lang.lexer.tokens", lambda a, r: len(r)),
    "parse_program": ("lang.parser.functions", lambda a, r: len(r.functions)),
    "parse_module": ("lang.parser.functions", lambda a, r: len(r.functions)),
    "enumerate_clones": ("graph.cloning.clones", lambda a, r: len(r)),
    "build_alias_graph": ("graph.alias_graph.edges", lambda a, r: r.graph.edge_count()),
    "build_dataflow_graph": ("graph.dataflow_graph.edges", lambda a, r: r.graph.edge_count()),
    "encode_columnar": ("engine.serialize.bytes_encoded", lambda a, r: len(r)),
    "parse_columnar": ("engine.serialize.bytes_parsed", lambda a, r: len(a[0])),
    "atomic_write_bytes": (
        "serve.state_write.bytes",
        lambda a, r: len(a[1]) if str(a[0]).endswith("serve-state.json") else 0,
    ),
    "fsync": ("engine.serialize.fsyncs", lambda a, r: 1),
}


@dataclass(slots=True)
class Span:
    name: str
    layer: str | None
    tid: int
    start: float
    end: float

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """In-memory spans and counters of one traced process."""

    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    #: Wrap attributes whose results are kept (``captured[attr]``), e.g.
    #: the ``GrappleRun`` whose run report carries the program's counters.
    capture: tuple = ()
    captured: dict = field(default_factory=dict)
    _installed: list = field(default_factory=list)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str | None):
        spans = self.spans
        counters = self.counters
        hook = COUNTERS.get(name.rsplit(".", 1)[-1])
        keep = self.captured.setdefault(name, []) if name in self.capture else None
        perf = time.perf_counter
        get_tid = threading.get_native_id

        def wrapper(*args, **kwargs):
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                if layer is not None:
                    spans.append(Span(name, layer, get_tid(), start, perf()))
            if hook is not None:
                try:
                    counters[hook[0]] = counters.get(hook[0], 0) + hook[1](args, result)
                except (AttributeError, TypeError, IndexError):
                    pass  # the result's shape changed: the counter reads 0
            if keep is not None:
                keep.append(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, wraps=WRAPS) -> None:
        """Wrap every target that exists; remember the rest as missing.

        A plain function is re-bound in every loaded ``repro`` module
        that holds the same object (``from x import f`` aliases), so the
        table names definitions, not call sites.
        """
        # Import everything first: a module imported *after* a function is
        # wrapped would bind the wrapper through ``from x import f``.
        for module_name in {w[0] for w in wraps}:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        for module_name, attr, layer in wraps:
            try:
                module = owner = sys.modules[module_name]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                # vars() not getattr(): keep staticmethod/classmethod objects
                original = vars(owner)[leaf]
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}:{attr}")
                continue
            if isinstance(original, (staticmethod, classmethod)):
                inner = self._wrap(original.__func__, attr, layer)
                self._set(owner, leaf, original, type(original)(inner))
                continue
            wrapped = self._wrap(original, attr, layer)
            self._set(owner, leaf, original, wrapped)
            if owner is module:
                for other in _repro_modules():
                    if other is not module and vars(other).get(leaf) is original:
                        self._set(other, leaf, original, wrapped)

    def _set(self, owner, leaf, original, replacement) -> None:
        setattr(owner, leaf, replacement)
        self._installed.append((owner, leaf, original, replacement))

    def uninstall(self) -> None:
        """Restore every original, including in modules that were first
        imported while the wrappers were in place."""
        strays = {id(rep): orig for owner, _, orig, rep in self._installed
                  if isinstance(owner, type(sys))}
        while self._installed:
            owner, leaf, original, _ = self._installed.pop()
            setattr(owner, leaf, original)
        for module in _repro_modules():
            for leaf, value in list(vars(module).items()):
                if id(value) in strays:
                    setattr(module, leaf, strays[id(value)])

    # -- program spans -----------------------------------------------------

    def absorb_program(self, trace_recorder) -> int:
        """Fold the program's ``TraceRecorder`` spans in (same process,
        same ``perf_counter`` clock; ``ts`` is relative to ``perf0``)."""
        taken = 0
        perf0 = trace_recorder.perf0
        for event in trace_recorder.events:
            if event.get("ph") != "X":
                continue
            layer = PROGRAM_SPANS.get(event["name"])
            if layer is None:
                continue
            start = perf0 + event["ts"] / 1e6
            self.spans.append(Span(
                event["name"], layer, event["tid"], start,
                start + event["dur"] / 1e6,
            ))
            taken += 1
        return taken

    def write_trace(self, trace_recorder, path: str) -> None:
        """Write the program's spans plus ours as one Chrome trace file
        (open it in ui.perfetto.dev)."""
        perf0 = trace_recorder.perf0
        events = trace_recorder.events
        for span in self.spans:
            if span.name in PROGRAM_SPANS:
                continue
            events.append({
                "ph": "X", "name": span.name, "cat": "harness",
                "pid": trace_recorder.pid, "tid": span.tid,
                "ts": (span.start - perf0) * 1e6, "dur": span.dur * 1e6,
                "args": {"layer": span.layer},
            })
        # dumps(), not the recorder's export(): json.dump streams through
        # the pure-Python encoder, ~10x slower on 10^4-10^5 events, and
        # that time would count as tracing overhead.
        with open(path, "w") as f:
            f.write(json.dumps(trace_recorder.chrome_trace()))


def _repro_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name.split(".")[0] == "repro" and m is not None]


# -- span arithmetic ------------------------------------------------------------


def self_times(spans, window=None) -> dict:
    """``{layer: self seconds}`` over ``spans`` (all threads).

    ``window`` = ``(start, end)`` keeps only spans that begin inside it.
    Spans nest per thread; a span's self time is its duration minus the
    duration of its direct children.
    """
    by_tid: dict = {}
    for span in spans:
        if window is not None and not window[0] <= span.start < window[1]:
            continue
        by_tid.setdefault(span.tid, []).append(span)
    out: dict = {}
    for items in by_tid.values():
        # Parents first: earlier start, and on a tie the longer span.
        items.sort(key=lambda s: (s.start, -s.end))
        stack: list = []  # [span, child seconds]
        for span in items:
            while stack and span.start >= stack[-1][0].end:
                _close(stack, out)
            stack.append([span, 0.0])
        while stack:
            _close(stack, out)
    return out


def _close(stack, out) -> None:
    span, child = stack.pop()
    out[span.layer] = out.get(span.layer, 0.0) + max(span.dur - child, 0.0)
    if stack:
        stack[-1][1] += span.dur


def inclusive(spans, window=None) -> dict:
    """``{span name: (total seconds, call count)}`` in one pass."""
    out: dict = {}
    for span in spans:
        if window is not None and not window[0] <= span.start < window[1]:
            continue
        seconds, calls = out.get(span.name, (0.0, 0))
        out[span.name] = (seconds + span.dur, calls + 1)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return ordered[int(rank) - 1]
