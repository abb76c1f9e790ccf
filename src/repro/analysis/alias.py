"""Phase 1: path-sensitive, context-sensitive alias analysis."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.frontend import CompiledProgram
from repro.engine.computation import EngineOptions, EngineResult, GraphEngine
from repro.grammar.pointsto import FLOWS_TO, PointsToGrammar
from repro.graph.alias_graph import AliasGraphResult, build_alias_graph
from repro.obs.trace import TraceRecorder


@dataclass
class AliasAnalysis:
    """Phase 1 output held in memory for phase 2's alias queries."""

    graph_result: AliasGraphResult
    engine_result: EngineResult
    # (object vertex, variable vertex) -> tuple of witness path encodings
    flows_to: dict = field(default_factory=dict)

    def points_to(self, func: str, var: str, ctx: tuple | None = None):
        """Allocation sites the variable may reference.

        The cloning-based design answers the query the paper uses to
        motivate it (§2.1): *"what objects does a variable point to under
        a particular context?"* -- pass ``ctx`` (a clone's cid tuple) to
        scope the answer to one calling context; omit it to union over all
        contexts.  Returns ``{(site, ctx), ...}``.
        """
        vertices = self.graph_result.graph.vertices
        out = set()
        for src, dst, _enc in self.engine_result.edges_with_label(FLOWS_TO):
            dst_key = vertices.lookup(dst)
            if dst_key[0] != "var":
                continue
            if dst_key[2] != func or dst_key[3] != var:
                continue
            if ctx is not None and dst_key[1] != ctx:
                continue
            src_key = vertices.lookup(src)
            if src_key[0] == "obj":
                out.add((src_key[1], dst_key[1]))
        return out


def run_alias_phase(
    compiled: CompiledProgram,
    tracked_types: set[str] | None = None,
    options: EngineOptions | None = None,
    relevance=None,
    rstats=None,
    engine_factory=GraphEngine,
) -> AliasAnalysis:
    """Build the alias program graph and run the points-to closure.

    ``relevance``/``rstats`` (from :mod:`repro.sa`) slice away variables
    that cannot reach a tracked object before any edge is generated.
    ``engine_factory`` builds the closure engine (a baseline passes its
    :class:`GraphEngine` subclass).
    """
    trace = getattr(options, "trace", None) or TraceRecorder(chrome=False)
    with trace.span("alias-graph", cat="graph"):
        if relevance is not None and rstats is not None:
            for func, vars_ in sorted(compiled.info.object_vars.items()):
                sliced = sum(
                    1 for v in vars_ if not relevance.var_relevant(func, v)
                )
                rstats.alias_vars_sliced += sliced
                if sliced and func not in relevance.alias_relevant_funcs:
                    rstats.functions_sliced += 1
        graph_result = build_alias_graph(
            compiled.program,
            compiled.icfet,
            compiled.callgraph,
            compiled.info,
            compiled.forest,
            tracked_types,
            relevance=relevance,
            rstats=rstats,
        )
    engine = engine_factory(
        compiled.icfet, PointsToGrammar(), options, phase="alias"
    )
    engine_result = engine.run(graph_result.graph)

    analysis = AliasAnalysis(graph_result, engine_result)
    tracked_vertices = {t.vertex for t in graph_result.tracked}
    with trace.span("alias-index", cat="graph"):
        for src, dst, label, encoding in engine_result.iter_edges():
            if label == FLOWS_TO and src in tracked_vertices:
                key = (src, dst)
                analysis.flows_to[key] = (
                    analysis.flows_to.get(key, ()) + (encoding,)
                )
    return analysis
