"""Phase 2: path-sensitive dataflow (typestate) analysis."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.alias import AliasAnalysis
from repro.analysis.frontend import CompiledProgram
from repro.checkers.fsm import FSM
from repro.engine.computation import EngineOptions, EngineResult, GraphEngine
from repro.grammar.dataflow import DataflowGrammar
from repro.graph.dataflow_graph import DataflowGraphResult, build_dataflow_graph
from repro.obs.trace import TraceRecorder


@dataclass
class DataflowAnalysis:
    graph_result: DataflowGraphResult
    engine_result: EngineResult


def run_dataflow_phase(
    compiled: CompiledProgram,
    alias_phase: AliasAnalysis,
    fsms_by_type: dict[str, FSM],
    options: EngineOptions | None = None,
    relevance=None,
    rstats=None,
    engine_factory=GraphEngine,
) -> DataflowAnalysis:
    """Propagate FSM states over the dataflow graph, answering alias
    queries from phase 1's in-memory results.

    ``relevance``/``rstats`` (from :mod:`repro.sa`) skip clones of
    flow-irrelevant functions and, when reduction is on, compress linear
    cf chains before the closure runs.  ``engine_factory`` builds the
    closure engine, as in :func:`~repro.analysis.alias.run_alias_phase`.
    """
    trace = getattr(options, "trace", None) or TraceRecorder(chrome=False)
    with trace.span("dataflow-graph", cat="graph"):
        graph_result = build_dataflow_graph(
            compiled.icfet,
            alias_phase.graph_result,
            fsms_by_type,
            relevance=relevance,
            rstats=rstats,
        )
    if rstats is not None:
        from repro.sa.reduce import compress_cf_chains

        with trace.span("sa-compress", cat="sa"):
            compress_cf_chains(graph_result, compiled.icfet, rstats)
    grammar = DataflowGrammar(
        objects=graph_result.objects,
        alias_index=alias_phase.flows_to,
        events_meta=graph_result.events_meta,
    )
    engine = engine_factory(compiled.icfet, grammar, options, phase="dataflow")
    engine_result = engine.run(graph_result.graph)
    return DataflowAnalysis(graph_result, engine_result)
