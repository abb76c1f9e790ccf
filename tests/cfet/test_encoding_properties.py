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


def _fixpoint_normalize(seq: list, icfet) -> list:
    """The reference: apply interval chaining and call/return
    cancellation in whole passes until neither changes anything (what
    ``merge`` did before it reduced at each push)."""
    seq = list(seq)
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(seq):
            a, b = seq[i], seq[i + 1]
            if a[0] == b[0] == "I" and a[1] == b[1] and a[3] == b[2]:
                seq[i : i + 2] = [("I", a[1], a[2], b[3])]
                changed = True
                continue
            i += 1
        i = 0
        while i + 2 < len(seq):
            a, m, b = seq[i], seq[i + 1], seq[i + 2]
            record = icfet.by_rid.get(b[1]) if b[0] == "R" else None
            if (a[0] == "C" and m[0] == "I" and record is not None
                    and record.cid == a[1] and m[2] == 0):
                seq[i : i + 3] = []
                changed = True
                continue
            i += 1
    return seq


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_merge_reaches_the_fixpoint_normal_form(icfet, data):
    """Reducing at each push gives the whole-pass fixpoint's normal form
    on arbitrary element sequences -- chains through ``[i, i]``,
    nested and unmatched call/return edges, callee paths that do and do
    not start at the root, inputs that are not themselves normal."""
    record = next(iter(icfet.by_cid.values()))
    nodes = sorted(icfet.cfets["main"].nodes)
    element = st.one_of(
        st.builds(
            lambda f, a, b: ("I", f, a, b),
            st.sampled_from(("main", "callee")),
            st.sampled_from(nodes[:4]), st.sampled_from(nodes[:4]),
        ),
        st.sampled_from((
            ("C", record.cid), ("R", record.rid),
            ("C", record.cid + 2), ("R", record.rid + 2),
        )),
    )
    enc1 = tuple(data.draw(st.lists(element, max_size=8)))
    enc2 = tuple(data.draw(st.lists(element, max_size=8)))
    want = _fixpoint_normalize(list(enc1) + list(enc2), icfet)
    merged = enc.merge(enc1, enc2, icfet)
    if len(want) > enc.MAX_ELEMENTS:
        assert merged is None
    else:
        assert merged == tuple(want)
