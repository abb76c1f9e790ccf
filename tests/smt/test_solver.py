"""Integration and property tests for the solver over conjunctions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import (
    FALSE,
    TRUE,
    BoolVar,
    IntConst,
    IntVar,
    Result,
    Solver,
    add,
    and_,
    eq,
    ge,
    gt,
    le,
    lt,
    mul,
    ne,
    not_,
    or_,
    sub,
)

X, Y = IntVar("x"), IntVar("y")
B = BoolVar("b")


def sat(formula):
    return Solver().check(formula) is Result.SAT


def test_true_sat_false_unsat():
    assert sat(TRUE)
    assert not sat(FALSE)


def test_bool_var_and_negation():
    assert sat(B)
    assert not sat(and_(B, not_(B)))


def test_paper_branch_conflict():
    # if(b) a.m(); if(!b) a.n() -- the two events can't share a path (§1.2).
    assert not sat(and_(B, not_(B)))


def test_linear_conjunction_sat():
    assert sat(and_(ge(X, IntConst(0)), lt(X, IntConst(10))))


def test_linear_conjunction_unsat():
    assert not sat(and_(ge(X, IntConst(0)), lt(X, IntConst(0))))


def test_infeasible_path_from_paper_fig3():
    # x < 0 (else branch), y == x + 1, y > 0 -- the paper's infeasible path 3.
    phi = and_(
        lt(X, IntConst(0)),
        eq(Y, add(X, IntConst(1))),
        gt(Y, IntConst(0)),
    )
    assert not sat(phi)


def test_feasible_path_from_paper_fig3():
    # x >= 0 (then branch), y == x - 1, y > 0 -- the paper's feasible path 1.
    phi = and_(
        ge(X, IntConst(0)),
        eq(Y, sub(X, IntConst(1))),
        gt(Y, IntConst(0)),
    )
    assert sat(phi)


def test_only_conjunctions_of_literals_are_decided():
    # Path constraints are conjunctions of literals; a disjunction, or a
    # negated conjunction, is a caller's bug, not a formula to enumerate.
    disjunction = or_(lt(X, IntConst(0)), gt(X, IntConst(10)))
    for formula in (
        disjunction,
        and_(disjunction, ge(X, IntConst(0))),
        not_(and_(B, gt(X, IntConst(0)))),
    ):
        with pytest.raises(ValueError, match="not a conjunction of literals"):
            Solver().check(formula)
        with pytest.raises(ValueError):
            Solver().get_model(formula)


def test_nonlinear_treated_conservatively():
    # x*y > 0 is opaque; conjunction with x > 0 stays SAT.
    phi = and_(gt(mul(X, Y), IntConst(0)), gt(X, IntConst(0)))
    assert sat(phi)


def test_opaque_atom_self_contradiction():
    atom = gt(mul(X, Y), IntConst(0))
    assert not sat(and_(atom, not_(atom)))


def test_stats_counted():
    solver = Solver()
    solver.check(and_(B, not_(B)))
    solver.check(TRUE)
    assert solver.stats.checks == 2
    assert solver.stats.unsat == 1
    assert solver.stats.sat == 1


def test_check_conjunction_list():
    solver = Solver()
    result = solver.check_conjunction([ge(X, IntConst(0)), lt(X, IntConst(0))])
    assert result is Result.UNSAT


# -- property-based tests -------------------------------------------------

_names = st.sampled_from(["x", "y", "z"])


@st.composite
def linear_exprs(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return IntVar(draw(_names))
        return IntConst(draw(st.integers(-20, 20)))
    op = draw(st.sampled_from(["add", "sub", "scale"]))
    left = draw(linear_exprs(depth=depth - 1))
    right = draw(linear_exprs(depth=depth - 1))
    if op == "add":
        return add(left, right)
    if op == "sub":
        return sub(left, right)
    return mul(IntConst(draw(st.integers(-3, 3))), left)


@st.composite
def comparisons(draw):
    op = draw(st.sampled_from([lt, le, eq, ne]))
    return op(draw(linear_exprs()), draw(linear_exprs()))


def _evaluate(expr, env):
    """Reference evaluator for ground checking."""
    import repro.smt.expr as E

    if expr.kind == E.INT_CONST or expr.kind == E.BOOL_CONST:
        return expr.value
    if expr.kind == E.VAR:
        return env[expr.args[0]]
    vals = [_evaluate(a, env) for a in expr.args]
    if expr.kind == E.ADD:
        return sum(vals)
    if expr.kind == E.MUL:
        out = 1
        for v in vals:
            out *= v
        return out
    if expr.kind == E.LT:
        return vals[0] < vals[1]
    if expr.kind == E.LE:
        return vals[0] <= vals[1]
    if expr.kind == E.EQ:
        return vals[0] == vals[1]
    if expr.kind == E.NE:
        return vals[0] != vals[1]
    if expr.kind == E.AND:
        return all(vals)
    if expr.kind == E.OR:
        return any(vals)
    if expr.kind == E.NOT:
        return not vals[0]
    raise AssertionError(expr.kind)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(comparisons(), min_size=1, max_size=4),
    st.integers(-10, 10),
    st.integers(-10, 10),
    st.integers(-10, 10),
)
def test_solver_never_refutes_witnessed_conjunctions(atoms, x, y, z):
    """If a ground witness satisfies the conjunction, the solver says SAT."""
    env = {"x": x, "y": y, "z": z}
    if all(_evaluate(a, env) for a in atoms):
        assert sat(and_(*atoms))


@settings(max_examples=60, deadline=None)
@given(comparisons())
def test_atom_and_negation_unsat(atom):
    """phi and not(phi) is always UNSAT for linear atoms."""
    assert not sat(and_(atom, not_(atom)))


@settings(max_examples=40, deadline=None)
@given(st.lists(comparisons(), min_size=1, max_size=3))
def test_conjunction_monotone_unsat(atoms):
    """If a prefix is UNSAT, the whole conjunction is UNSAT."""
    solver = Solver()
    if solver.check(and_(*atoms[:-1])) is Result.UNSAT:
        assert solver.check(and_(*atoms)) is Result.UNSAT
