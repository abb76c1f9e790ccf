"""Unit tests for the points-to and dataflow grammars."""

from repro.checkers import Checker
from repro.grammar.cfg_grammar import ComposeContext
from repro.grammar.dataflow import CF, DataflowGrammar, state_label
from repro.grammar.pointsto import (
    ALIAS,
    ASSIGN,
    FLOWS_TO,
    FLOWS_TO_BAR,
    HEAP,
    NEW,
    PointsToGrammar,
    sa_label,
)

CTX = ComposeContext(feasible=lambda encs: True, vertex=lambda v: ("v", v))


def edge(src, dst, label):
    return (src, dst, label, (("I", "f", 0, 0),))


# -- points-to grammar -------------------------------------------------------


def test_new_derives_flows_to():
    grammar = PointsToGrammar()
    assert (FLOWS_TO, False) in list(grammar.derived(NEW))


def test_flows_to_derives_reversed_bar():
    grammar = PointsToGrammar()
    assert (FLOWS_TO_BAR, True) in list(grammar.derived(FLOWS_TO))


def test_flows_to_assign_composes():
    grammar = PointsToGrammar()
    out = grammar.compose(edge(0, 1, FLOWS_TO), edge(1, 2, ASSIGN), CTX)
    assert tuple(out) == (FLOWS_TO,)


def test_bar_then_flows_to_gives_alias():
    grammar = PointsToGrammar()
    out = grammar.compose(edge(0, 1, FLOWS_TO_BAR), edge(1, 2, FLOWS_TO), CTX)
    assert tuple(out) == (ALIAS,)


def test_store_alias_load_field_matching():
    grammar = PointsToGrammar()
    sa = grammar.compose(edge(0, 1, ("store", "f")), edge(1, 2, ALIAS), CTX)
    assert tuple(sa) == (sa_label("f"),)
    heap = grammar.compose(edge(0, 2, sa_label("f")), edge(2, 3, ("load", "f")), CTX)
    assert tuple(heap) == (HEAP,)


def test_store_load_field_mismatch_rejected():
    grammar = PointsToGrammar()
    out = grammar.compose(edge(0, 2, sa_label("f")), edge(2, 3, ("load", "g")), CTX)
    assert tuple(out) == ()


def test_flows_to_heap_extends_flow():
    grammar = PointsToGrammar()
    out = grammar.compose(edge(0, 1, FLOWS_TO), edge(1, 2, HEAP), CTX)
    assert tuple(out) == (FLOWS_TO,)


def test_irrelevant_pairs_rejected():
    grammar = PointsToGrammar()
    assert tuple(grammar.compose(edge(0, 1, ASSIGN), edge(1, 2, ASSIGN), CTX)) == ()
    assert tuple(grammar.compose(edge(0, 1, NEW), edge(1, 2, ASSIGN), CTX)) == ()


def test_relevance_filters():
    grammar = PointsToGrammar()
    assert grammar.relevant_source(FLOWS_TO)
    assert not grammar.relevant_source(ASSIGN)
    assert grammar.relevant_target(ASSIGN)
    assert not grammar.relevant_target(NEW)


# -- dataflow grammar -----------------------------------------------------------


def make_dataflow_grammar(feasible=True, alias_present=True):
    fsm = Checker.by_name("io").fsm
    objects = {10: (fsm, 100, None)}
    alias_index = {(100, 200): ((("I", "f", 0, 0),),)} if alias_present else {}
    events_meta = {(1, 2): ((0, 200, "close"),)}
    grammar = DataflowGrammar(objects, alias_index, events_meta)
    ctx = ComposeContext(
        feasible=lambda encs: feasible, vertex=lambda v: ("v", v)
    )
    return grammar, ctx


def test_state_advances_on_aliased_event():
    grammar, ctx = make_dataflow_grammar()
    out = grammar.compose(
        (10, 1, state_label("io", "Open"), (("I", "f", 0, 0),)),
        (1, 2, CF, (("I", "f", 0, 0),)),
        ctx,
    )
    assert tuple(out) == (state_label("io", "Closed"),)


def test_state_unchanged_without_alias():
    grammar, ctx = make_dataflow_grammar(alias_present=False)
    out = grammar.compose(
        (10, 1, state_label("io", "Open"), (("I", "f", 0, 0),)),
        (1, 2, CF, (("I", "f", 0, 0),)),
        ctx,
    )
    assert tuple(out) == (state_label("io", "Open"),)


def test_state_unchanged_when_alias_infeasible():
    grammar, ctx = make_dataflow_grammar(feasible=False)
    out = grammar.compose(
        (10, 1, state_label("io", "Open"), (("I", "f", 0, 0),)),
        (1, 2, CF, (("I", "f", 0, 0),)),
        ctx,
    )
    assert tuple(out) == (state_label("io", "Open"),)


def test_error_state_is_sticky_and_stops():
    grammar, ctx = make_dataflow_grammar()
    out = grammar.compose(
        (10, 1, state_label("io", "Error"), (("I", "f", 0, 0),)),
        (1, 2, CF, (("I", "f", 0, 0),)),
        ctx,
    )
    assert tuple(out) == ()


def test_unknown_object_ignored():
    grammar, ctx = make_dataflow_grammar()
    out = grammar.compose(
        (99, 1, state_label("io", "Open"), (("I", "f", 0, 0),)),
        (1, 2, CF, (("I", "f", 0, 0),)),
        ctx,
    )
    assert tuple(out) == ()


def test_dataflow_relevance():
    grammar, _ = make_dataflow_grammar()
    assert grammar.relevant_source(state_label("io", "Open"))
    assert not grammar.relevant_source(CF)
    assert grammar.relevant_target(CF)
    assert not grammar.relevant_target(state_label("io", "Open"))
