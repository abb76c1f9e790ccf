"""The end-to-end Grapple pipeline (paper §2.2's three-phase workflow).

:class:`Grapple` ties everything together: compile the subject, run the
path-sensitive alias closure (phase 1), run the path-sensitive dataflow
closure with in-memory alias queries (phase 2), then extract state facts
and check them against every applicable FSM (phase 3).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.analysis.alias import AliasAnalysis, run_alias_phase
from repro.analysis.dataflow import DataflowAnalysis, run_dataflow_phase
from repro.analysis.frontend import CompiledProgram, compile_source
from repro.checkers.fsm import FSM, fsms_by_type
from repro.checkers.report import Report, Warning
from repro.engine.computation import EngineOptions, GraphEngine
from repro.engine.stats import EngineStats
from repro.graph.cloning import (
    CloneForest,
    enumerate_clones,
    root_functions,
    root_keys,
    tree_order,
)
from repro.obs.trace import TraceRecorder, merge_spans
from repro.sa.reduce import ReductionStats
from repro.sa.relevance import RelevanceInfo, compute_relevance


@dataclass
class GrappleOptions:
    """End-to-end knobs: frontend bounds plus engine options."""

    unroll: int = 2
    max_clone_depth: int = 24
    max_clones: int = 500_000
    #: Run the pre-closure reductions (:mod:`repro.sa`): constant-branch
    #: folding, dead-store elimination, FSM-relevance slicing and cf-chain
    #: compression.  On by default; ``--no-reduce`` turns it off.
    reduce: bool = True
    #: Optional :class:`~repro.sa.scopes.ScopeArtifactCache` shared
    #: across runs (the serve daemon hands one in so only edited files
    #: re-derive their scope artifacts).
    scope_cache: object = None
    #: Optional root-result table of an earlier run over an earlier
    #: version of the sources (``GrappleRun.root_table``): a root whose
    #: key still holds keeps its warnings and its clone tree is not
    #: built.  The serve daemon hands in the superseded strata's tables.
    root_table: dict | None = None
    engine: EngineOptions = field(default_factory=EngineOptions)


@dataclass
class GrappleRun:
    """Everything produced by one Grapple execution."""

    compiled: CompiledProgram
    alias_phase: AliasAnalysis
    dataflow_phase: DataflowAnalysis
    report: Report
    #: ``{span name: (self_s, incl_s, calls)}`` of every span this run
    #: ended on its thread: the ``run`` span and all within it.
    spans: dict = field(default_factory=dict)
    #: The run's histograms (``repro.obs.metrics``): what it observed.
    histograms: dict = field(default_factory=dict)
    #: Pre-closure reduction counters; None when reduction was off.
    reduction: "ReductionStats | None" = None
    #: The relevance slice the graph builders read; None when reduction
    #: was off.
    relevance: "RelevanceInfo | None" = None
    #: ``{root: [key, [file-relative warning dicts]]}`` for every root
    #: function, in whole-run order; JSON-ready, and the
    #: ``GrappleOptions.root_table`` of a later run.  Keys are None
    #: when this run was handed no table (pass ``{}`` to start one).
    root_table: dict = field(default_factory=dict)
    #: The roots whose clone trees this run built and closed (all of
    #: them unless a ``root_table`` was handed in).
    rechecked: list = field(default_factory=list)

    @property
    def stats(self) -> EngineStats:
        """Merged engine stats across both phases.

        Cross-phase aggregation is :meth:`EngineStats.merge_phase`,
        derived entirely from field metadata: counters and gauges sum
        (both operands are final per-phase results), flags OR.
        """
        merged = EngineStats()
        merged.merge_phase(self.alias_phase.engine_result.stats)
        merged.merge_phase(self.dataflow_phase.engine_result.stats)
        return merged

    @property
    def closure_spans(self) -> dict:
        """Both phases' closure windows, summed (Fig. 9 reads these)."""
        return merge_spans(
            phase.engine_result.closure_spans
            for phase in (self.alias_phase, self.dataflow_phase)
        )

    @property
    def total_time(self) -> float:
        return self.spans["run"][1]

    @property
    def computation_time(self) -> float:
        """The closures' wall (the paper's Table 3 CT)."""
        return self.closure_spans.get("closure", (0.0, 0.0, 0))[1]

    @property
    def preprocess_time(self) -> float:
        return self.total_time - self.computation_time

    def run_report(
        self, subject: str | None = None, telemetry: dict | None = None
    ) -> dict:
        """The ``grapple/run-report`` JSON document for this run.

        ``telemetry`` is a resource sampler's timeseries document
        (``repro.obs.profile``); when given it rides in the report's
        optional ``telemetry`` section (schema version 2).
        """
        from repro.obs.report import run_report

        resolution = self.compiled.resolution
        return run_report(
            self.stats,
            len(self.report.warnings),
            spans=self.spans,
            closure=self.closure_spans,
            histograms=self.histograms,
            reduction=(
                self.reduction.as_dict() if self.reduction is not None
                else None
            ),
            scopes=(
                resolution.stats.as_dict() if resolution is not None
                else None
            ),
            subject=subject,
            telemetry=telemetry,
        )


class Grapple:
    """Facade: check finite-state properties of one subject program.

    ``source`` is a single source string or a multi-file mapping
    ``{path: text}`` (or ``(path, text)`` pairs); multi-file subjects go
    through cross-file name resolution (:mod:`repro.sa.scopes`) before
    the phases run, and the resolution record rides on
    ``run.compiled.resolution``.  ``engine_factory`` builds both phases'
    closure engines: a :class:`GraphEngine` subclass, or a
    ``functools.partial`` of one binding its constructor's keywords.
    """

    def __init__(
        self,
        source,
        fsms: list[FSM],
        options: GrappleOptions | None = None,
        engine_factory=GraphEngine,
    ):
        self.source = source
        self.fsms = list(fsms)
        self.fsms_by_type = fsms_by_type(self.fsms)  # FsmError on a clash
        self.options = options or GrappleOptions()
        self.engine_factory = engine_factory

    def run(self) -> GrappleRun:
        """One run, timed by the spans of one recorder: the engine
        options' ``trace``, or one made here that keeps no events."""
        trace = self.options.engine.trace or TraceRecorder(chrome=False)
        window = trace.window()
        with trace.span("run", cat="pipeline"):
            run = self._run(trace)
        run.spans = window.spans()
        run.histograms = window.histograms()
        return run

    def _run(self, trace) -> GrappleRun:
        options = self.options
        engine_options = dataclasses.replace(options.engine, trace=trace)
        reduction = ReductionStats() if options.reduce else None
        compiled = compile_source(
            self.source,
            unroll=options.unroll,
            reduce=options.reduce,
            reduction=reduction,
            trace=trace,
            scope_cache=options.scope_cache,
            roots=(),  # cloned below, once the keys say which trees to build
        )
        tracked_types = set(self.fsms_by_type)

        relevance = None
        if options.reduce:
            with trace.span("sa-relevance", cat="sa"):
                tracked_events: set[str] = set()
                for fsm in self.fsms:
                    tracked_events |= fsm.events()
                relevance = compute_relevance(
                    compiled.summaries,
                    compiled.callgraph,
                    compiled.info,
                    tracked_types,
                    tracked_events,
                )
        if options.scope_cache is None:
            # Relevance was the summaries' last reader, and no cache
            # keeps them: the closures run without them.
            compiled.summaries = {}

        with trace.span("root-trees", cat="graph") as span:
            ranges = _SiteRanges(compiled.resolution)
            roots = root_functions(compiled.program, compiled.callgraph)
            table = options.root_table
            # No table (`repro check`): nothing to reuse, so nothing to key.
            cache = options.scope_cache
            keys = {} if table is None else root_keys(
                compiled.program, compiled.callgraph, roots, self._config(),
                compiled.info, relevance, ranges.origin, compiled.bodies,
                None if cache is None else cache.fact_digests,
            )
            reused = {
                root: table[root] for root, key in keys.items()
                if root in table and table[root][0] == key
            }
            rechecked = [root for root in roots if root not in reused]
            with trace.span("cloning", cat="graph"):
                compiled.forest = enumerate_clones(
                    compiled.program, compiled.icfet, compiled.callgraph,
                    roots=rechecked,
                    max_depth=options.max_clone_depth,
                    max_clones=options.max_clones,
                )
            span.args.update(roots=len(roots), rechecked=len(rechecked))

        # A phase span's self time is its engine's set-up and teardown.
        with trace.span("alias-phase", cat="pipeline"):
            alias_phase = run_alias_phase(
                compiled, tracked_types, engine_options,
                relevance=relevance, rstats=reduction,
                engine_factory=self.engine_factory,
            )
        if options.scope_cache is None:
            # The alias graph was the frontend's last reader: the
            # dataflow phase and the report need only the ICFET and the
            # forest, so a batch run lets the AST, the object facts and
            # the call graph go before the second closure.
            compiled.program = compiled.info = compiled.callgraph = None
        with trace.span("dataflow-phase", cat="pipeline"):
            dataflow_phase = run_dataflow_phase(
                compiled, alias_phase, self.fsms_by_type, engine_options,
                relevance=relevance, rstats=reduction,
                engine_factory=self.engine_factory,
            )
        with trace.span("extract-report", cat="checkers"):
            fresh = extract_report(
                dataflow_phase, compiled.forest, compiled.icfet
            )
            # A whole run reports tree by tree (warnings come in vertex
            # order); a warning two trees share keeps the first one's
            # witness.
            report = Report()
            root_table = {}
            for root in tree_order(roots):
                entry = reused.get(root)
                if entry is None:
                    found = fresh[root].warnings if root in fresh else []
                    entry = [keys.get(root), [ranges.localize(w) for w in found]]
                else:
                    found = [ranges.globalize(doc) for doc in entry[1]]
                for warning in found:
                    report.add(warning)
                root_table[root] = entry
        return GrappleRun(
            compiled=compiled,
            alias_phase=alias_phase,
            dataflow_phase=dataflow_phase,
            report=report,
            reduction=reduction,
            relevance=relevance,
            root_table=root_table,
            rechecked=rechecked,
        )

    def _config(self) -> str:
        """Everything outside the sources that decides a root's warnings."""
        options, engine = self.options, self.options.engine
        factory = self.engine_factory
        # The engine's class attributes, unless a partial binds them.
        bound = getattr(factory, "keywords", {})
        cls = getattr(factory, "func", factory)
        head = json.dumps([
            options.unroll, options.max_clone_depth, options.max_clones,
            options.reduce, engine.witness_cap, engine.path_sensitive,
            cls.constraint_mode,
            bound.get("max_string_bytes", cls.max_string_bytes),
        ])
        # The specs sorted, as JSON: they sort by name, which differs
        # between unequal FSMs (``fsms_by_type``).
        specs = ", ".join(
            fsm.spec_json for fsm in sorted(self.fsms, key=lambda f: f.name)
        )
        return f"{head[:-1]}, [{specs}]]"


class _SiteRanges:
    """Warning sites between a run's global numbering and file-relative
    ``(file, offset)`` coordinates, which survive a neighbour file
    growing (``Resolution.site_ranges``).  A single-source run is one
    unnamed file starting at site 0."""

    def __init__(self, resolution):
        if resolution is None:
            self.ranges = {"": (0, sys.maxsize)}
            self.file_of = {}
        else:
            self.ranges = resolution.site_ranges
            self.file_of = resolution.file_of
        self.paths = sorted(self.ranges, key=self.ranges.get)
        self.bases = [self.ranges[path][0] for path in self.paths]

    def origin(self, symbol: str) -> tuple[str, int]:
        """The file defining ``symbol`` and that file's first site id."""
        path = self.file_of.get(symbol, "")
        return path, self.ranges[path][0]

    def localize(self, warning: Warning) -> dict:
        path = self.paths[bisect_right(self.bases, warning.site) - 1]
        return {
            "file": path, "offset": warning.site - self.ranges[path][0],
            "checker": warning.checker, "kind": warning.kind,
            "type_name": warning.type_name, "state": warning.state,
            "func": warning.func, "line": warning.line,
            "witness": list(warning.witness),
        }

    def globalize(self, doc: dict) -> Warning:
        return Warning(
            checker=doc["checker"], kind=doc["kind"],
            site=self.ranges[doc["file"]][0] + doc["offset"],
            type_name=doc["type_name"], state=doc["state"],
            func=doc["func"], line=doc["line"],
            witness=tuple(doc["witness"]),
        )


def extract_report(
    dataflow_phase: DataflowAnalysis,
    forest: CloneForest,
    icfet=None,
    with_witnesses: bool = True,
) -> dict[str, Report]:
    """Phase 3: check each object's reachable states against its FSM.

    One report per root function of ``forest``: a warning belongs to the
    root in whose clone tree its object was allocated.

    When the ICFET is supplied, each warning carries a *witness*: a
    concrete assignment to the program's inputs satisfying the path
    constraint of one witnessing path (decoded from the state edge's
    encoding and solved for a model).
    """
    reports: dict[str, Report] = {}
    objects = dataflow_phase.graph_result.objects
    exits = dataflow_phase.graph_result.exit_vertices
    fsm_by_name = {fsm.name: fsm for fsm, _, _ in objects.values()}
    for src, dst, label, encoding in dataflow_phase.engine_result.iter_edges():
        if label[0] != "st":
            continue
        entry = objects.get(src)
        if entry is None:
            continue
        fsm_name, state = label[1], label[2]
        fsm = fsm_by_name.get(fsm_name)
        if fsm is None:
            continue
        _, _, tracked = entry
        if fsm.is_error(state):
            kind = "error-transition"
        elif dst in exits and fsm.violates_at_exit(state):
            kind = "at-exit"
        else:
            continue
        witness = ()
        if with_witnesses and icfet is not None:
            witness = _witness_of(encoding, icfet)
        root = forest.clones[tracked.clone_key].root
        reports.setdefault(root, Report()).add(
            Warning(
                checker=fsm_name,
                kind=kind,
                site=tracked.site,
                type_name=tracked.type_name,
                state=state,
                func=tracked.clone_key[1],
                line=tracked.line,
                witness=witness,
            )
        )
    return reports


def _witness_of(encoding, icfet) -> tuple:
    """Concrete triggering inputs for one witnessing path encoding."""
    from repro.cfet.encoding import decode_constraint
    from repro.smt import Solver

    try:
        constraint = decode_constraint(encoding, icfet)
        model = Solver().get_model(constraint)
    except (ValueError, KeyError):  # string-mode payloads, pruned ICFETs
        return ()
    if not model:
        return ()
    entries = []
    for name in sorted(model):
        if not isinstance(name, str) or "@" in name or "::" not in name:
            continue  # only root-context program symbols
        short = name.split("::", 1)[1]
        if short.startswith(("opaque_", "ret_occ", "thr_occ", "__")):
            continue
        value = model[name]
        if hasattr(value, "denominator") and value.denominator == 1:
            value = int(value)
        entries.append(f"{name} = {value}")
        if len(entries) >= 4:
            break
    return tuple(entries)
