"""FSM-relevance slicing: what survives, what is cut."""

from repro.lang.callgraph import build_call_graph
from repro.lang.parser import parse_program
from repro.lang.transform import (
    lower_exceptions,
    normalize_calls,
    unroll_loops,
)
from repro.lang.summary import summarize_program, type_facts_of
from repro.lang.types import infer_object_vars
from repro.sa.relevance import compute_relevance

TRACKED = {"FileWriter"}
EVENTS = {"write", "close"}


def relevance_of(source: str):
    program = parse_program(source)
    normalize_calls(program)
    unroll_loops(program, 1)
    lower_exceptions(program)
    summaries = summarize_program(program)
    callgraph = build_call_graph(summaries)
    info = infer_object_vars(type_facts_of(summaries))
    return compute_relevance(summaries, callgraph, info, TRACKED, EVENTS)


def test_direct_allocation_and_copies_relevant():
    rel = relevance_of(
        """
        func main(x) {
            var w = new FileWriter();
            var alias = w;
            var scratch = new Buffer();
            alias.close();
            return x;
        }
        """
    )
    assert rel.var_relevant("main", "w")
    assert rel.var_relevant("main", "alias")
    assert not rel.var_relevant("main", "scratch")
    assert rel.func_flow_relevant("main")


def test_flows_through_calls_and_fields():
    rel = relevance_of(
        """
        func make() {
            var fresh = new FileWriter();
            return fresh;
        }
        func stash(box, thing) {
            box.slot = thing;
            return box;
        }
        func main(x) {
            var w = make();
            var b = new Box();
            b = stash(b, w);
            var got = b.slot;
            got.close();
            return x;
        }
        """
    )
    # Through the return edge, the param edges, and the field node.
    assert rel.var_relevant("make", "fresh")
    assert rel.var_relevant("main", "w")
    assert rel.var_relevant("stash", "thing")
    assert rel.var_relevant("main", "got")
    assert "slot" in rel.relevant_fields


def test_unrelated_helper_is_flow_irrelevant():
    rel = relevance_of(
        """
        func math_only(n) {
            var t = n * 2;
            return t;
        }
        func main(x) {
            var w = new FileWriter();
            var y = math_only(x);
            w.close();
            return y;
        }
        """
    )
    assert not rel.func_flow_relevant("math_only")
    assert rel.func_flow_relevant("main")


def test_caller_of_relevant_callee_is_relevant():
    rel = relevance_of(
        """
        func deep() {
            var w = new FileWriter();
            w.close();
            return 0;
        }
        func middle(x) {
            var r = deep();
            return r;
        }
        func main(x) {
            var y = middle(x);
            return y;
        }
        """
    )
    # Flow relevance propagates callee -> caller all the way up.
    assert rel.func_flow_relevant("deep")
    assert rel.func_flow_relevant("middle")
    assert rel.func_flow_relevant("main")


def test_event_on_untracked_component_does_not_promote():
    rel = relevance_of(
        """
        func main(x) {
            var b = new Buffer();
            b.close();
            return x;
        }
        """
    )
    # `close` is a tracked event name, but b's component holds no tracked
    # allocation, so nothing becomes relevant.
    assert not rel.var_relevant("main", "b")
    assert not rel.func_flow_relevant("main")
