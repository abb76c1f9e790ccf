"""Lazy DPLL(T) solver facade.

The solver decides satisfiability of boolean combinations of linear integer
comparisons and boolean variables:

* **fast path** -- a pure conjunction of literals goes straight to the
  Fourier-Motzkin theory check (this is the common case for path
  constraints, which are conjunctions of branch conditions);
* **general path** -- the formula's boolean structure is Tseitin-encoded,
  boolean models are enumerated with the DPLL core, and each model's implied
  theory literals are checked; theory conflicts add blocking clauses.

Comparisons that are not linear (variable products) are treated as opaque
boolean atoms: they constrain nothing in the theory and so err on the SAT
side, the conservative direction for path feasibility.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from fractions import Fraction

from repro.smt import expr as E
from repro.smt import dpll
from repro.smt.fourier_motzkin import check_conjunction, find_model
from repro.smt.linear import LinearAtom, NonLinearError, atom_from_comparison

_COMPARISONS = (E.LT, E.LE, E.EQ, E.NE)

# Give up enumerating boolean models after this many theory conflicts and
# answer SAT (conservative for path feasibility).
MAX_THEORY_ITERATIONS = 256


class Result(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"


@dataclass
class SolverStats:
    """Counters exposed for the engine's performance accounting."""

    checks: int = 0
    sat: int = 0
    unsat: int = 0
    theory_calls: int = 0
    fast_path: int = 0
    gave_up: int = 0

    def merge(self, other: "SolverStats") -> None:
        """Sum every counter field (derived, so new counters can't be
        forgotten the way a hand-written list can)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class _Literal:
    """A theory literal: an atom plus polarity."""

    atom: object  # LinearAtom | ("bvar", name) | ("opaque", Expr)
    positive: bool


class Solver:
    """Decides satisfiability of :class:`repro.smt.expr.Expr` formulas."""

    def __init__(self) -> None:
        self.stats = SolverStats()

    def check(self, formula: E.Expr) -> Result:
        """Check one formula; returns :class:`Result`."""
        self.stats.checks += 1
        # Out of budget answers SAT: a spurious feasible path, never a
        # missed one.
        if self._search(formula, _satisfiable, if_exhausted={}) is None:
            self.stats.unsat += 1
            return Result.UNSAT
        self.stats.sat += 1
        return Result.SAT

    def is_satisfiable(self, formula: E.Expr) -> bool:
        return self.check(formula) is Result.SAT

    def check_conjunction(self, formulas: list[E.Expr]) -> Result:
        """Check the conjunction of several formulas."""
        return self.check(E.and_(*formulas))

    # No in-tree caller since the engine solves each query as it meets
    # it; kept because the committed benchmarks/harness wraps it
    # (layers.WRAPS).  Drop with that entry.
    def check_batch(self, formulas, gave_up_flags: list | None = None):
        """Check several independent formulas in one call.

        Each formula is charged to the same counters as an individual
        :meth:`check`.  When ``gave_up_flags`` is given it
        receives one bool per formula saying whether that check
        exhausted the DPLL(T) iteration budget (such verdicts are
        conservative and must not be memoised by form).
        """
        results = []
        for formula in formulas:
            before = self.stats.gave_up
            results.append(self.check(formula))
            if gave_up_flags is not None:
                gave_up_flags.append(self.stats.gave_up != before)
        return results

    def get_model(self, formula: E.Expr):
        """A satisfying assignment ``{name: Fraction|bool}``, or None.

        Integer variables get :class:`fractions.Fraction` values (whole
        whenever an integer point exists in the satisfying region);
        boolean variables get bools.  Opaque atoms are unconstrained and
        do not appear in the model.
        """
        return self._search(formula, find_model, if_exhausted=None)

    # -- internals --------------------------------------------------------

    def _search(self, formula: E.Expr, decide, if_exhausted):
        """The model of the first conjunction of theory literals that
        implies ``formula`` and is consistent, or None when there is none.

        ``decide`` maps linear atoms to an integer model or None
        (:func:`find_model`, or :func:`_satisfiable` when only the verdict
        is wanted).  A conjunction of literals is decided directly; any
        other formula through the boolean models of its Tseitin encoding,
        each theory conflict blocking that combination of atom
        polarities, at most ``MAX_THEORY_ITERATIONS`` times -- after
        which the answer is ``if_exhausted``.
        """
        literals = _conjunction_literals(formula)
        if literals is not None:
            self.stats.fast_path += 1
            return self._theory(literals, decide)
        builder = dpll.CnfBuilder()
        builder.assert_literal(_tseitin(formula, builder))
        atom_for_var = {v: a for a, v in builder.atom_vars.items()}
        for _ in range(MAX_THEORY_ITERATIONS):
            bool_model = dpll.solve(builder.clauses, builder.num_vars)
            if bool_model is None:
                return None
            model = self._theory(
                [_Literal(atom_for_var[v], bool_model[v]) for v in atom_for_var],
                decide,
            )
            if model is not None:
                return model
            builder.add_clause(
                (-v if bool_model[v] else v) for v in atom_for_var
            )
        self.stats.gave_up += 1
        return if_exhausted

    def _theory(self, literals: list[_Literal], decide):
        """Model of a conjunction of theory literals, or None."""
        self.stats.theory_calls += 1
        # Boolean variables and opaque comparisons constrain nothing in
        # the theory: only an atom taken with both polarities is a conflict.
        polarity: dict = {}
        atoms: list[LinearAtom] = []
        for lit in literals:
            atom = lit.atom
            if isinstance(atom, LinearAtom):
                atoms.append(atom if lit.positive else atom.negated())
            elif polarity.setdefault(atom, lit.positive) != lit.positive:
                return None
        model = decide(atoms)
        if model is not None:
            model.update(
                (atom[1], positive)
                for atom, positive in polarity.items() if atom[0] == "bvar"
            )
        return model


def _satisfiable(atoms: list[LinearAtom]):
    """:func:`find_model`'s contract without the integer values, for
    callers that want only the verdict."""
    return {} if check_conjunction(atoms) else None


def _atom_of(expr: E.Expr):
    """Classify an atomic boolean expression into ``(atom, polarity)``.

    Returns None when the expression is not atomic.  Opaque atoms (boolean
    equalities and nonlinear comparisons) are canonicalised so that an atom
    and its pushed-through negation map to the same key with opposite
    polarity (``a <= b`` is stored as ``not (b < a)``).
    """
    if expr.kind == E.VAR:
        return ("bvar", expr.args[0]), True
    if expr.kind in _COMPARISONS:
        left = expr.args[0]
        if left.sort == "bool":
            return _opaque_atom(expr)
        try:
            return atom_from_comparison(expr), True
        except NonLinearError:
            return _opaque_atom(expr)
    return None


def _opaque_atom(expr: E.Expr):
    """Canonical (key, polarity) for a comparison treated as opaque."""
    left, right = expr.args
    if expr.kind == E.LE:
        return ("opaque", E.LT, right, left), False
    if expr.kind == E.NE:
        kind, positive = E.EQ, False
    else:
        kind, positive = expr.kind, True
    if kind == E.EQ and repr(right) < repr(left):
        left, right = right, left
    return ("opaque", kind, left, right), positive


def _conjunction_literals(formula: E.Expr):
    """If the formula is a conjunction of literals, return them; else None."""
    terms = formula.args if formula.kind == E.AND else (formula,)
    literals: list[_Literal] = []
    for term in terms:
        positive = True
        while term.kind == E.NOT:
            positive = not positive
            term = term.args[0]
        if term is E.TRUE or term is E.FALSE:
            if (term is E.TRUE) != positive:
                # A constantly-false literal: inject the unsat atom 1 == 0.
                literals.append(
                    _Literal(LinearAtom((), Fraction(1), "=="), True)
                )
            continue
        classified = _atom_of(term)
        if classified is None:
            return None
        atom, atom_positive = classified
        literals.append(_Literal(atom, positive == atom_positive))
    return literals


def _tseitin(expr: E.Expr, builder: dpll.CnfBuilder) -> int:
    """Encode the expression; returns the literal equivalent to it."""
    if expr is E.TRUE:
        v = builder.fresh_var()
        builder.assert_literal(v)
        return v
    if expr is E.FALSE:
        v = builder.fresh_var()
        builder.assert_literal(-v)
        return v
    if expr.kind == E.NOT:
        return -_tseitin(expr.args[0], builder)
    classified = _atom_of(expr)
    if classified is not None:
        atom, positive = classified
        var = builder.atom_var(atom)
        return var if positive else -var
    child_lits = [_tseitin(a, builder) for a in expr.args]
    gate = builder.fresh_var()
    if expr.kind == E.AND:
        for lit in child_lits:
            builder.add_clause((-gate, lit))
        builder.add_clause((gate,) + tuple(-l for l in child_lits))
    elif expr.kind == E.OR:
        for lit in child_lits:
            builder.add_clause((gate, -lit))
        builder.add_clause((-gate,) + tuple(child_lits))
    else:
        raise ValueError(f"cannot encode boolean node {expr.kind!r}")
    return gate
