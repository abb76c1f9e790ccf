"""Self-contained SMT solver used as a substitute for Z3.

The path constraints produced by Grapple's analyses are conjunctions of
literals: linear integer comparisons and boolean variables (branch
conditions) and equalities (parameter passing).  This package provides:

* :mod:`repro.smt.expr` -- an immutable expression algebra,
* :mod:`repro.smt.linear` -- normalisation of arithmetic atoms,
* :mod:`repro.smt.fourier_motzkin` -- a conjunction-level LIA decision
  procedure (equality substitution + Fourier-Motzkin elimination),
* :mod:`repro.smt.sexpr` -- the constraints' text form,
* :mod:`repro.smt.solver` -- the solver over conjunctions of literals.
"""

from repro.smt.expr import (
    Expr,
    IntConst,
    BoolConst,
    IntVar,
    BoolVar,
    add,
    sub,
    mul,
    neg,
    lt,
    le,
    gt,
    ge,
    eq,
    ne,
    and_,
    or_,
    not_,
    implies,
    TRUE,
    FALSE,
)
from repro.smt.solver import Solver, SolverStats, Result

__all__ = [
    "Expr",
    "IntConst",
    "BoolConst",
    "IntVar",
    "BoolVar",
    "add",
    "sub",
    "mul",
    "neg",
    "lt",
    "le",
    "gt",
    "ge",
    "eq",
    "ne",
    "and_",
    "or_",
    "not_",
    "implies",
    "TRUE",
    "FALSE",
    "Solver",
    "SolverStats",
    "Result",
]
