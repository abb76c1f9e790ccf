"""Integration tests for the graph engine on hand-built graphs."""

import pytest

from repro.baselines.string_constraints import StringConstraintEngine
from repro.cfet import encoding as enc
from repro.cfet.icfet import build_icfet
from repro.engine.computation import EngineOptions, GraphEngine
from repro.grammar.cfg_grammar import Grammar
from repro.graph.model import ProgramGraph
from repro.lang.parser import parse_program
from repro.lang.transform import lower_exceptions, normalize_calls, unroll_loops

# A tiny program giving us an ICFET whose root function has two branches,
# used to attach real interval encodings to synthetic edges.
SOURCE = """
func main(x) {
    if (x > 0) {
        if (x > 10) {
            return;
        }
        return;
    }
    return;
}
"""


def sample_icfet():
    program = parse_program(SOURCE)
    normalize_calls(program)
    unroll_loops(program)
    lower_exceptions(program)
    return build_icfet(program)


@pytest.fixture()
def icfet():
    return sample_icfet()


class ChainGrammar(Grammar):
    """a . a -> a : plain transitive closure over label ('a',)."""

    def compose(self, edge1, edge2, ctx):
        if edge1[2] == ("a",) and edge2[2] == ("a",):
            return (("a",),)
        return ()


def build_chain(n, icfet, encoding=None):
    graph = ProgramGraph()
    encoding = encoding or enc.single("main", 0)
    for i in range(n):
        graph.vertices.intern(("v", i))
    for i in range(n - 1):
        graph.add_edge(i, i + 1, ("a",), encoding)
    return graph


def run(graph, icfet, grammar=None, engine_class=GraphEngine, **opts):
    options = EngineOptions(memory_budget=1 << 20, **opts)
    engine = engine_class(icfet, grammar or ChainGrammar(), options)
    return engine, engine.run(graph)


def test_transitive_closure_of_chain(icfet):
    graph = build_chain(5, icfet)
    _, result = run(graph, icfet)
    pairs = {(s, d) for s, d, _l, _e in result.iter_edges()}
    expected = {(i, j) for i in range(5) for j in range(i + 1, 5)}
    assert pairs == expected


def test_closure_result_counts(icfet):
    graph = build_chain(4, icfet)
    _, result = run(graph, icfet)
    # 3 base + 2 length-2 + 1 length-3 = 6, but composition of composed
    # edges also finds (0,3) via multiple routes -- deduped to 6 pairs.
    pairs = {(s, d) for s, d, _l, _e in result.iter_edges()}
    assert len(pairs) == 6
    assert result.stats.edges_after >= 6


def test_infeasible_composition_dropped(icfet):
    """Edges whose merged constraint is UNSAT must not be added."""
    graph = ProgramGraph()
    for i in range(3):
        graph.vertices.intern(("v", i))
    # main node 2 is the x > 0 branch; node 1 is x <= 0.
    graph.add_edge(0, 1, ("a",), (enc.interval("main", 0, 2),))
    graph.add_edge(1, 2, ("a",), (enc.interval("main", 0, 1),))
    _, result = run(graph, icfet)
    pairs = {(s, d) for s, d, _l, _e in result.iter_edges()}
    assert (0, 2) not in pairs
    assert result.stats.infeasible_dropped >= 1


def test_feasible_composition_kept(icfet):
    graph = ProgramGraph()
    for i in range(3):
        graph.vertices.intern(("v", i))
    graph.add_edge(0, 1, ("a",), (enc.interval("main", 0, 2),))
    graph.add_edge(1, 2, ("a",), (enc.interval("main", 2, 6),))
    _, result = run(graph, icfet)
    pairs = {(s, d) for s, d, _l, _e in result.iter_edges()}
    assert (0, 2) in pairs


def test_witness_cap_limits_encodings(icfet):
    graph = ProgramGraph()
    for i in range(4):
        graph.vertices.intern(("v", i))
    # Two parallel routes 0 -> k -> 3 give two witness encodings for (0, 3).
    graph.add_edge(0, 1, ("a",), enc.single("main", 0))
    graph.add_edge(1, 3, ("a",), enc.single("main", 1))
    graph.add_edge(0, 2, ("a",), enc.single("main", 0))
    graph.add_edge(2, 3, ("a",), enc.single("main", 2))
    _, result = run(graph, icfet, witness_cap=1)
    encodings_03 = [e for s, d, _l, e in result.iter_edges() if (s, d) == (0, 3)]
    assert len(encodings_03) == 1


def test_derived_reverse_edges(icfet):
    class RevGrammar(Grammar):
        def derived(self, label):
            if label == ("fwd",):
                yield ("bwd",), True

        def compose(self, edge1, edge2, ctx):
            return ()

    graph = ProgramGraph()
    graph.vertices.intern(("v", 0))
    graph.vertices.intern(("v", 1))
    graph.add_edge(0, 1, ("fwd",), enc.single("main", 0))
    _, result = run(graph, icfet, grammar=RevGrammar())
    edges = {(s, d, l) for s, d, l, _e in result.iter_edges()}
    assert (1, 0, ("bwd",)) in edges


def test_cache_disabled_still_correct(icfet):
    graph = build_chain(5, icfet)
    engine, result = run(graph, icfet, enable_cache=False)
    pairs = {(s, d) for s, d, _l, _e in result.iter_edges()}
    assert len(pairs) == 10
    assert engine.stats.cache_hits == 0


def test_cache_enabled_hits(icfet):
    graph = build_chain(6, icfet)
    engine, _ = run(graph, icfet, enable_cache=True)
    assert engine.stats.cache_hits > 0


def test_small_budget_forces_partitions(icfet):
    graph = build_chain(60, icfet)
    options = EngineOptions(memory_budget=4096)
    engine = GraphEngine(icfet, ChainGrammar(), options)
    result = engine.run(graph)
    assert result.stats.final_partitions > 2
    pairs = {(s, d) for s, d, _l, _e in result.iter_edges()}
    # Closure must still be complete despite partitioning.
    assert (0, 59) in pairs
    assert len(pairs) == 60 * 59 // 2


def test_time_budget_marks_timeout(icfet):
    graph = build_chain(40, icfet)
    options = EngineOptions(memory_budget=4096)
    engine = StringConstraintEngine(
        icfet, ChainGrammar(), options, time_budget=0.0
    )
    result = engine.run(graph)
    assert result.stats.timed_out
    assert result.stats.pairs_processed == 0


def test_string_mode_closure_matches_interval_mode(icfet):
    graph1 = build_chain(5, icfet)
    _, result1 = run(graph1, icfet)
    graph2 = build_chain(5, icfet)
    _, result2 = run(graph2, icfet, engine_class=StringConstraintEngine)
    pairs1 = {(s, d) for s, d, _l, _e in result1.iter_edges()}
    pairs2 = {(s, d) for s, d, _l, _e in result2.iter_edges()}
    assert pairs1 == pairs2


def test_string_mode_drops_infeasible(icfet):
    graph = ProgramGraph()
    for i in range(3):
        graph.vertices.intern(("v", i))
    graph.add_edge(0, 1, ("a",), (enc.interval("main", 0, 2),))
    graph.add_edge(1, 2, ("a",), (enc.interval("main", 0, 1),))
    _, result = run(graph, icfet, engine_class=StringConstraintEngine)
    pairs = {(s, d) for s, d, _l, _e in result.iter_edges()}
    assert (0, 2) not in pairs


def test_result_collect_by_label(icfet):
    graph = build_chain(3, icfet)
    _, result = run(graph, icfet)
    collected = result.collect_by_label(lambda label: label == ("a",))
    assert all(key[2] == ("a",) for key in collected)
    assert len(collected) == 3
