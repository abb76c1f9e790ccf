"""Property-based tests for path-encoding invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfet import encoding as enc
from repro.cfet.icfet import build_icfet
from repro.lang.parser import parse_program
from repro.lang.transform import lower_exceptions, normalize_calls, unroll_loops
from repro.smt import Result, Solver
from repro.smt import expr as E

SOURCE = """
func callee(a) {
    if (a > 0) {
        return a - 1;
    }
    return a + 1;
}
func main(x) {
    if (x > 0) {
        if (x > 10) {
            var r = callee(x);
            return;
        }
        return;
    }
    if (x < -5) {
        return;
    }
    return;
}
"""


@pytest.fixture(scope="module")
def icfet():
    program = parse_program(SOURCE)
    normalize_calls(program)
    unroll_loops(program)
    lower_exceptions(program)
    return build_icfet(program)


def tree_paths(cfet):
    """All (ancestor, descendant) interval pairs of a CFET."""
    pairs = []
    for node_id in cfet.nodes:
        current = node_id
        while True:
            pairs.append((current, node_id))
            if current == 0:
                break
            from repro.cfet.cfet import parent_id

            current = parent_id(current)
    return pairs


@st.composite
def intervals(draw, icfet_funcs=("main", "callee")):
    func = draw(st.sampled_from(icfet_funcs))
    return func


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_merge_chained_intervals_equals_decode_conjunction(icfet, data):
    """For chaining intervals [a,b] + [b,c], decode(merge) == decode(a,b)
    AND decode(b,c) up to logical equivalence (checked by the solver)."""
    cfet = icfet.cfets["main"]
    pairs = tree_paths(cfet)
    a, b = data.draw(st.sampled_from(pairs))
    # find an interval starting at b
    continuations = [(x, y) for x, y in pairs if x == b]
    b2, c = data.draw(st.sampled_from(continuations))
    e1 = (enc.interval("main", a, b),)
    e2 = (enc.interval("main", b2, c),)
    merged = enc.merge(e1, e2, icfet)
    assert merged == (enc.interval("main", a, c),)
    conj = E.and_(
        enc.decode_constraint(e1, icfet), enc.decode_constraint(e2, icfet)
    )
    merged_constraint = enc.decode_constraint(merged, icfet)
    solver = Solver()
    # Equivalence of two conjunctions: each implies every literal of the
    # other, i.e. ``other and not literal`` is UNSAT both ways.
    for side, other in ((conj, merged_constraint), (merged_constraint, conj)):
        for literal in side.args if side.kind == E.AND else (side,):
            negated = E.and_(other, E.not_(literal))
            assert solver.check(negated) is Result.UNSAT, (literal, other)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_reverse_is_involution(icfet, data):
    cfet = icfet.cfets["main"]
    pairs = tree_paths(cfet)
    parts = []
    for _ in range(data.draw(st.integers(1, 3))):
        a, b = data.draw(st.sampled_from(pairs))
        parts.append(enc.interval("main", a, b))
    encoding = tuple(parts)
    assert enc.reverse(enc.reverse(encoding)) == encoding


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_reverse_preserves_constraint(icfet, data):
    """Bar edges carry the same constraint as their forward originals."""
    cfet = icfet.cfets["main"]
    pairs = tree_paths(cfet)
    a, b = data.draw(st.sampled_from(pairs))
    encoding = (enc.interval("main", a, b),)
    fwd = enc.decode_constraint(encoding, icfet)
    bwd = enc.decode_constraint(enc.reverse(encoding), icfet)
    assert fwd == bwd


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_merge_never_lengthens_beyond_inputs_plus_inputs(icfet, data):
    cfet = icfet.cfets["main"]
    pairs = tree_paths(cfet)
    parts1 = [
        enc.interval("main", *data.draw(st.sampled_from(pairs)))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    parts2 = [
        enc.interval("main", *data.draw(st.sampled_from(pairs)))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    merged = enc.merge(tuple(parts1), tuple(parts2), icfet)
    assert merged is not None
    assert len(merged) <= len(parts1) + len(parts2)


def test_case3_cancellation_preserves_caller_constraint(icfet):
    """After a completed (C, callee, R) triple cancels, the remaining
    encoding still carries the caller-side branch conditions."""
    main = icfet.cfets["main"]
    record = None
    for node in main.nodes.values():
        if node.calls:
            record = node.calls[0]
            break
    assert record is not None
    call_node = record.node_id
    e1 = (
        enc.interval("main", 0, call_node),
        enc.call_elem(record.cid),
        enc.interval("callee", 0, 0),
    )
    e2 = (
        enc.interval("callee", 0, 1),
        enc.return_elem(record.rid),
        enc.interval("main", call_node, call_node),
    )
    merged = enc.merge(e1, e2, icfet)
    assert merged == (enc.interval("main", 0, call_node),)
    constraint = enc.decode_constraint(merged, icfet)
    # The caller path to the call site requires x > 10 and x > 0.
    x = E.IntVar("main::x")
    solver = Solver()
    assert solver.check(E.and_(constraint, E.le(x, E.IntConst(10)))) is Result.UNSAT
