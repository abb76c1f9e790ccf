"""Satisfiability of path constraints.

A path constraint is a conjunction of literals (the CFET gives every
short-circuit operand its own branch, :mod:`repro.cfet.cfet`): linear
integer comparisons, boolean variables and their negations.  The solver
decides one by Fourier-Motzkin elimination over the linear literals, and
extracts an integer model when asked.  Anything else is refused with a
``ValueError``.

Comparisons that are not linear (variable products) are treated as opaque
boolean atoms: they constrain nothing in the theory and so err on the SAT
side, the conservative direction for path feasibility.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from repro.smt import expr as E
from repro.smt.fourier_motzkin import check_conjunction, find_model
from repro.smt.linear import LinearAtom, NonLinearError, atom_from_comparison

_COMPARISONS = (E.LT, E.LE, E.EQ, E.NE)


class Result(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"


@dataclass
class SolverStats:
    """Counters exposed for the engine's performance accounting."""

    checks: int = 0
    sat: int = 0
    unsat: int = 0


@dataclass
class Literal:
    """A theory literal: an atom plus polarity."""

    atom: object  # LinearAtom | ("bvar", name) | ("opaque", kind, l, r)
    positive: bool


#: The constantly-false literal ``1 == 0``.
FALSE_LITERAL = Literal(LinearAtom((), Fraction(1), "=="), True)


class Solver:
    """Decides satisfiability of :class:`repro.smt.expr.Expr` formulas."""

    def __init__(self) -> None:
        self.stats = SolverStats()

    def check(self, formula: E.Expr) -> Result:
        """Check one formula; returns :class:`Result`."""
        return self.check_literals(_conjunction_literals(formula))

    def check_literals(self, literals) -> Result:
        """Check a conjunction given as its :class:`Literal` s (what
        :func:`literal_of` makes of each conjunct)."""
        self.stats.checks += 1
        if _theory(literals, _satisfiable) is None:
            self.stats.unsat += 1
            return Result.UNSAT
        self.stats.sat += 1
        return Result.SAT

    def check_conjunction(self, formulas: list[E.Expr]) -> Result:
        """Check the conjunction of several formulas."""
        return self.check(E.and_(*formulas))

    # No in-tree caller since the engine solves each query as it meets
    # it; kept because the committed benchmarks/harness wraps it
    # (layers.WRAPS).  Drop with that entry.
    def check_batch(self, formulas):
        """Check several independent formulas, each charged to the same
        counters as an individual :meth:`check`."""
        return [self.check(formula) for formula in formulas]

    def get_model(self, formula: E.Expr):
        """A satisfying assignment ``{name: Fraction|bool}``, or None.

        Integer variables get :class:`fractions.Fraction` values (whole
        whenever an integer point exists in the satisfying region);
        boolean variables get bools.  Opaque atoms are unconstrained and
        do not appear in the model.
        """
        return _theory(_conjunction_literals(formula), find_model)


def _theory(literals, decide):
    """``decide``'s model of a conjunction of literals, or None when
    they are inconsistent.  ``decide`` maps linear atoms to an integer
    model or None (:func:`find_model`, or :func:`_satisfiable` when only
    the verdict is wanted)."""
    # Boolean variables and opaque comparisons constrain nothing in the
    # theory: only an atom taken with both polarities is a conflict.
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


def literal_of(term: E.Expr) -> Literal | None:
    """The theory literal of one non-constant conjunct (negations
    stripped into its polarity), or None when it is not a literal."""
    positive = True
    while term.kind == E.NOT:
        positive = not positive
        term = term.args[0]
    classified = _atom_of(term)
    if classified is None:
        return None
    atom, atom_positive = classified
    return Literal(atom, positive == atom_positive)


def _conjunction_literals(formula: E.Expr) -> list[Literal]:
    """The literals of a conjunction; ``ValueError`` for any other
    formula."""
    terms = formula.args if formula.kind == E.AND else (formula,)
    literals: list[Literal] = []
    for term in terms:
        positive, constant = True, term
        while constant.kind == E.NOT:
            positive = not positive
            constant = constant.args[0]
        if constant is E.TRUE or constant is E.FALSE:
            if (constant is E.TRUE) != positive:
                # A constantly-false literal: inject the unsat atom 1 == 0.
                literals.append(FALSE_LITERAL)
            continue
        literal = literal_of(term)
        if literal is None:
            raise ValueError(f"not a conjunction of literals: {formula!r}")
        literals.append(literal)
    return literals
