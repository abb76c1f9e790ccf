"""Tests for model extraction (witness generation)."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.smt import (
    BoolVar,
    IntConst,
    IntVar,
    Solver,
    add,
    and_,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
    not_,
    or_,
    sub,
)
from repro.smt import expr as E

X, Y, Z = IntVar("x"), IntVar("y"), IntVar("z")


def model_of(formula):
    return Solver().get_model(formula)


def _evaluate(expr, model):
    if expr.kind in (E.INT_CONST, E.BOOL_CONST):
        return expr.value
    if expr.kind == E.VAR:
        return model.get(expr.args[0], Fraction(0) if expr.sort == "int" else False)
    vals = [_evaluate(a, model) for a in expr.args]
    ops = {
        E.ADD: lambda: sum(vals),
        E.LT: lambda: vals[0] < vals[1],
        E.LE: lambda: vals[0] <= vals[1],
        E.EQ: lambda: vals[0] == vals[1],
        E.NE: lambda: vals[0] != vals[1],
        E.AND: lambda: all(vals),
        E.OR: lambda: any(vals),
        E.NOT: lambda: not vals[0],
    }
    if expr.kind == E.MUL:
        out = Fraction(1)
        for v in vals:
            out *= v
        return out
    return ops[expr.kind]()


def assert_satisfies(formula):
    model = model_of(formula)
    assert model is not None
    assert _evaluate(formula, model), (formula, model)
    return model


def test_trivial_cases():
    assert model_of(E.TRUE) == {}
    assert model_of(E.FALSE) is None


def test_simple_bounds():
    model = assert_satisfies(and_(ge(X, IntConst(3)), lt(X, IntConst(7))))
    assert 3 <= model["x"] < 7


def test_unsat_returns_none():
    assert model_of(and_(lt(X, IntConst(0)), gt(X, IntConst(0)))) is None


def test_equalities_back_substituted():
    phi = and_(
        eq(Y, add(X, IntConst(1))),
        eq(Z, add(Y, IntConst(1))),
        eq(X, IntConst(5)),
    )
    model = assert_satisfies(phi)
    assert model["x"] == 5 and model["y"] == 6 and model["z"] == 7


def test_chained_inequalities():
    phi = and_(lt(X, Y), lt(Y, Z), ge(X, IntConst(0)), le(Z, IntConst(10)))
    model = assert_satisfies(phi)
    assert model["x"] < model["y"] < model["z"]


def test_disequality_avoided():
    phi = and_(ge(X, IntConst(0)), le(X, IntConst(1)), ne(X, IntConst(0)))
    model = assert_satisfies(phi)
    assert model["x"] == 1


def test_integer_preferred():
    model = assert_satisfies(and_(gt(X, IntConst(2)), lt(X, IntConst(9))))
    assert model["x"].denominator == 1


def test_bool_vars_in_model():
    b = BoolVar("b")
    model = assert_satisfies(and_(b, gt(X, IntConst(0))))
    assert model["b"] is True


def test_disjunction_model():
    phi = and_(
        or_(lt(X, IntConst(-10)), gt(X, IntConst(10))),
        ge(X, IntConst(0)),
    )
    model = assert_satisfies(phi)
    assert model["x"] > 10


def test_negated_bool_model():
    b = BoolVar("b")
    model = assert_satisfies(and_(not_(b), ge(X, IntConst(1))))
    assert model["b"] is False


def test_paper_fig3b_feasible_path_model():
    """Path 1 of Figure 3b: x >= 0, y == x - 1, y > 0 -- e.g. x = 2."""
    phi = and_(
        ge(X, IntConst(0)),
        eq(Y, sub(X, IntConst(1))),
        gt(Y, IntConst(0)),
    )
    model = assert_satisfies(phi)
    assert model["x"] >= 2


# -- property-based -------------------------------------------------------------

_names = st.sampled_from(["x", "y", "z"])


@st.composite
def conjunctions(draw):
    n = draw(st.integers(1, 4))
    terms = []
    for _ in range(n):
        op = draw(st.sampled_from([lt, le, eq, ne]))
        left = IntVar(draw(_names))
        right = IntConst(draw(st.integers(-15, 15)))
        if draw(st.booleans()):
            right = add(IntVar(draw(_names)), right)
        terms.append(op(left, right))
    return and_(*terms)


@settings(max_examples=80, deadline=None)
@given(conjunctions())
def test_model_satisfies_formula_whenever_sat(phi):
    """get_model and check agree, and returned models really satisfy."""
    solver = Solver()
    model = solver.get_model(phi)
    from repro.smt import Result

    if solver.check(phi) is Result.SAT:
        # Rational-complete solver: SAT implies a model is found.
        assert model is not None
        assert _evaluate(phi, model)
    else:
        assert model is None


def _random_formula(rng, depth):
    """Unit-coefficient atoms under and/or/not: difference constraints
    have an integer model whenever they have a rational one, so ``check``
    (integer-tightened) and ``get_model`` must agree exactly."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.2:
            return BoolVar(rng.choice("pq"))
        right = IntConst(rng.randint(-6, 6))
        if rng.random() < 0.5:
            right = add(IntVar(rng.choice("xyz")), right)
        return rng.choice([lt, le, eq, ne])(IntVar(rng.choice("xyz")), right)
    if rng.random() < 0.2:
        return not_(_random_formula(rng, depth - 1))
    children = [_random_formula(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    return rng.choice([and_, or_])(*children)


def test_check_and_get_model_agree_on_formulas_with_disjunction(monkeypatch):
    """``check`` and ``get_model`` share one DPLL(T) enumeration: on
    seeded random boolean combinations they must give the same verdict,
    and every model must satisfy its formula.  (The iteration budget is
    lowered so the seeds that exhaust it cost milliseconds, not seconds.)"""
    import random

    from repro.smt import Result, solver as solver_mod

    monkeypatch.setattr(solver_mod, "MAX_THEORY_ITERATIONS", 32)
    verdicts = {Result.SAT: 0, Result.UNSAT: 0}
    gave_up = 0
    for seed in range(400):
        phi = _random_formula(random.Random(seed), depth=3)
        solver = Solver()
        verdict = solver.check(phi)
        if solver.stats.gave_up:
            # Out of iteration budget: conservative SAT, and no model.
            gave_up += 1
            assert verdict is Result.SAT, (seed, phi)
            assert solver.get_model(phi) is None, (seed, phi)
            continue
        model = solver.get_model(phi)
        verdicts[verdict] += 1
        assert (model is not None) == (verdict is Result.SAT), (seed, phi)
        if model is not None:
            assert _evaluate(phi, model), (seed, phi, model)
    assert min(verdicts.values()) >= 30 and gave_up, (verdicts, gave_up)
