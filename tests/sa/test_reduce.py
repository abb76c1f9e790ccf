"""Reduction stats and cf-chain compression."""

from repro import Grapple, GrappleOptions, default_checkers
from repro.analysis.alias import run_alias_phase
from repro.analysis.frontend import compile_source
from repro.cfet import encoding as enc
from repro.checkers.fsm import fsms_by_type
from repro.graph.dataflow_graph import build_dataflow_graph
from repro.sa.reduce import ReductionStats, _constraint_free, compress_cf_chains
from repro.sa.relevance import compute_relevance

FIG3B = """
func main(arg0) {
    var out = null;
    var o = null;
    var x = arg0;
    var y = x;
    if (x >= 0) {
        out = new FileWriter();
        o = out;
        y = y - 1;
    } else {
        y = y + 1;
    }
    if (y > 0) {
        out.write(x);
        o.close();
    }
    return;
}
"""


def run(source: str, reduce: bool):
    fsms = [c.fsm for c in default_checkers()]
    return Grapple(source, fsms, GrappleOptions(reduce=reduce)).run()


def canonical_warnings(run_result):
    return sorted(
        (w.checker, w.kind, w.site, w.state, w.type_name, w.func, w.line)
        for w in run_result.report.warnings
    )


def test_constraint_free_classification():
    assert _constraint_free(())
    assert _constraint_free((enc.call_elem(7),))
    assert _constraint_free((("I", "f", 3, 3),))
    assert not _constraint_free((("I", "f", 0, 3),))  # branch literals
    assert not _constraint_free((enc.return_elem(9),))  # return equations
    assert not _constraint_free((enc.call_elem(7), ("I", "f", 1, 4)))


def test_stats_dict_and_summary():
    stats = ReductionStats(branches_folded=2, cf_chains_merged=5)
    d = stats.as_dict()
    assert d["branches_folded"] == 2
    assert d["cf_chains_merged"] == 5
    assert set(d) >= {
        "dead_stores_removed",
        "alias_vars_sliced",
        "clones_skipped",
        "cf_edges_removed",
    }
    assert "branches folded 2" in stats.summary()


def test_fig3b_reduction_preserves_the_report():
    off = run(FIG3B, reduce=False)
    on = run(FIG3B, reduce=True)
    assert canonical_warnings(off) == canonical_warnings(on)
    assert off.reduction is None
    assert on.reduction is not None


def test_compression_shrinks_phase2_input():
    off = run(FIG3B, reduce=False)
    on = run(FIG3B, reduce=True)
    before = off.dataflow_phase.engine_result.stats.edges_before
    after = on.dataflow_phase.engine_result.stats.edges_before
    assert on.reduction.cf_chains_merged > 0
    assert after < before


def _compressed_dataflow_graph(source: str):
    """Phase 2's input as ``Grapple`` builds it with reduction on, read
    before an engine takes its edges: the alias phase, the dataflow
    graph and cf-chain compression."""
    fsms = [c.fsm for c in default_checkers()]
    by_type = fsms_by_type(fsms)
    rstats = ReductionStats()
    compiled = compile_source(source, reduce=True, reduction=rstats)
    events = set().union(*(fsm.events() for fsm in fsms))
    relevance = compute_relevance(
        compiled.summaries, compiled.callgraph, compiled.info,
        set(by_type), events,
    )
    alias = run_alias_phase(compiled, set(by_type), relevance=relevance,
                            rstats=rstats)
    graph_result = build_dataflow_graph(
        compiled.icfet, alias.graph_result, by_type,
        relevance=relevance, rstats=rstats,
    )
    compress_cf_chains(graph_result, compiled.icfet, rstats)
    assert rstats.cf_chains_merged > 0
    return graph_result


def test_compression_keeps_objects_and_exits():
    graph_result = _compressed_dataflow_graph(FIG3B)
    edges = graph_result.graph.edges
    touching = set(edges)
    for targets in edges.values():
        touching.update(dst for dst, _label in targets)
    # Every seeded object vertex still has its seed edge, every exit
    # vertex is still an edge target: compression never contracts them.
    for obj_vid in graph_result.objects:
        assert obj_vid in edges
    for exit_vid in graph_result.exit_vertices:
        assert exit_vid in touching


def test_event_edges_survive_with_consistent_metadata():
    graph_result = _compressed_dataflow_graph(FIG3B)
    edge_pairs = {
        (src, dst)
        for src, targets in graph_result.graph.edges.items()
        for dst, _label in targets
    }
    assert graph_result.events_meta
    for key in graph_result.events_meta:
        assert key in edge_pairs  # no metadata orphaned by rewiring
