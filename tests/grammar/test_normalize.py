"""Tests for the declarative grammar compiler (binarisation)."""

import pytest

from repro.cfet import encoding as enc
from repro.cfet.icfet import build_icfet
from repro.engine.computation import EngineOptions, GraphEngine
from repro.grammar.cfg_grammar import ComposeContext
from repro.grammar.normalize import (
    FIELD,
    Production,
    Reversal,
    compile_grammar,
    compiled_points_to,
)
from repro.grammar.pointsto import PointsToGrammar
from repro.graph.model import ProgramGraph
from repro.lang.parser import parse_program
from repro.lang.transform import lower_exceptions, normalize_calls, unroll_loops

CTX = ComposeContext(feasible=lambda ids, encoding: True, vertex=lambda v: ("v", v))


def edge(src, dst, label):
    return (src, dst, label, (("I", "f", 0, 0),))


def test_unary_production_becomes_derivation():
    grammar = compile_grammar([Production(("A",), [("t",)])])
    assert list(grammar.derived(("t",))) == [(("A",), False)]


def test_binary_production_composes():
    grammar = compile_grammar([Production(("A",), [("B",), ("C",)])])
    assert grammar.compose(edge(0, 1, ("B",)), edge(1, 2, ("C",)), CTX) == [("A",)]
    assert grammar.compose(edge(0, 1, ("C",)), edge(1, 2, ("B",)), CTX) == []


def test_ternary_production_binarised():
    grammar = compile_grammar([Production(("A",), [("B",), ("C",), ("D",)])])
    mids = grammar.compose(edge(0, 1, ("B",)), edge(1, 2, ("C",)), CTX)
    assert len(mids) == 1
    mid = mids[0]
    assert mid[0].startswith("__mid")
    assert grammar.compose(edge(0, 2, mid), edge(2, 3, ("D",)), CTX) == [("A",)]


def test_field_parameter_threading():
    grammar = compile_grammar(
        [Production(("A",), [("s", FIELD), ("x",), ("l", FIELD)])]
    )
    mids = grammar.compose(edge(0, 1, ("s", "f1")), edge(1, 2, ("x",)), CTX)
    assert mids == [(f"{mids[0][0]}", "f1")] or mids[0][1] == "f1"
    # Matching field completes; mismatching does not.
    assert grammar.compose(edge(0, 2, mids[0]), edge(2, 3, ("l", "f1")), CTX) == [("A",)]
    assert grammar.compose(edge(0, 2, mids[0]), edge(2, 3, ("l", "f2")), CTX) == []


def test_reversal_declared():
    grammar = compile_grammar(
        [Production(("A",), [("t",)])],
        reversals=[Reversal(("A",), ("Abar",))],
    )
    assert (("Abar",), True) in list(grammar.derived(("A",)))


def test_empty_production_rejected():
    with pytest.raises(ValueError):
        Production(("A",), [])


def test_parameterised_lhs_needs_binding():
    with pytest.raises(ValueError):
        Production(("A", FIELD), [("t",)])


def test_relevance_filters_cover_rule_symbols():
    grammar = compiled_points_to()
    assert grammar.relevant_source(("flowsTo",))
    assert grammar.relevant_target(("assign",))
    assert not grammar.relevant_target(("new",))


#: Stores and loads through aliases: ``b`` and ``c`` alias ``a``'s box,
#: so the writer stored through ``b`` is loaded through ``c`` -- and on
#: one branch only, through ``d``.
ALIASED_HEAP = """
func main(x) {
    var a = new Box();
    var b = a;
    var c = a;
    var w = new FileWriter();
    b.item = w;
    var h = c.item;
    var d = new Box();
    if (x > 0) {
        d = b;
    }
    var k = d.item;
    h.close();
    k.close();
    return;
}
"""


def test_compiled_points_to_matches_handwritten_closure():
    """The Fig. 4b text compiled declaratively (``alias`` closed for
    every variable) is the independent oracle for the re-associated
    PointsToGrammar: both must compute exactly the same ``flowsTo``,
    ``sa`` and ``heap`` facts."""
    simple = """
    func main(x) {
        var box = new Box();
        var f = new FileWriter();
        var g = f;
        box.item = g;
        var h = box.item;
        if (x > 0) {
            h.close();
        }
        return;
    }
    """
    from repro.lang.callgraph import build_call_graph
    from repro.lang.summary import summarize_program, type_facts_of
    from repro.lang.types import infer_object_vars
    from repro.graph.cloning import enumerate_clones
    from repro.graph.alias_graph import build_alias_graph

    def closure(source, grammar):
        program = parse_program(source)
        normalize_calls(program)
        unroll_loops(program)
        lower_exceptions(program)
        icfet = build_icfet(program)
        summaries = summarize_program(program)
        callgraph = build_call_graph(summaries)
        info = infer_object_vars(type_facts_of(summaries))
        forest = enumerate_clones(program, icfet, callgraph)
        result = build_alias_graph(program, icfet, callgraph, info, forest)
        engine = GraphEngine(
            icfet, grammar, EngineOptions(memory_budget=1 << 20)
        )
        out = engine.run(result.graph)
        facts, names = set(), set()
        for src, dst, label, _e in out.iter_edges():
            names.add(label[0])
            if label[0] in ("flowsTo", "sa", "heap"):
                facts.add(
                    (
                        result.graph.vertices.lookup(src),
                        result.graph.vertices.lookup(dst),
                        label,
                    )
                )
        return facts, names

    for source in (simple, ALIASED_HEAP):
        handwritten, names = closure(source, PointsToGrammar())
        compiled, oracle_names = closure(source, compiled_points_to())
        assert handwritten == compiled
        kinds = {label[0] for _s, _d, label in handwritten}
        assert kinds == {"flowsTo", "sa", "heap"}
        # Only the oracle's bracketing closes alias.
        assert {"alias", "flowsToBar"} <= oracle_names
        assert not {"alias", "flowsToBar"} & names
    # In the aliased program the writer (allocation site 1) reaches h
    # and k through the heap.
    writers = {
        dst[3] for src, dst, label in handwritten
        if label == ("flowsTo",) and src[:2] == ("obj", 1)
    }
    assert {"w", "h", "k"} <= writers, writers
