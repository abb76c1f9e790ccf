"""Per-function symbolic evaluation of the core mini-language.

The evaluator maintains an environment mapping integer variables to SMT
expressions over the function's *symbolic variables*: its formal parameters,
``input()`` sites, and call-site return values (paper §3.3).  Object
variables evaluate to ``None`` -- their flow is the alias analysis' job, not
the constraint system's.

Symbol names are namespaced per function (``foo::x``) so that
interprocedural constraints from different methods do not collide; the
path decoder additionally instances them per call-segment occurrence.
"""

from __future__ import annotations

from repro.lang import ast
from repro.smt import expr as E


def symbol_name(func: str, var: str) -> str:
    """Namespaced symbol for variable ``var`` of function ``func``."""
    return f"{func}::{var}"


def call_result_symbol(func: str, call_site: int) -> str:
    """Symbol standing for the value returned at a call site."""
    return symbol_name(func, f"ret{call_site}")


def input_symbol(func: str, site: int) -> str:
    return symbol_name(func, f"in{site}")


class SymbolicEnv:
    """Mutable symbolic store for one control-flow path of one function."""

    def __init__(self, func: str, params: list[str]):
        self.func = func
        self.values: dict[str, E.Expr | None] = {
            p: E.IntVar(symbol_name(func, p)) for p in params
        }
        self._opaque_counter = 0

    def copy(self) -> "SymbolicEnv":
        clone = SymbolicEnv.__new__(SymbolicEnv)
        clone.func = self.func
        clone.values = dict(self.values)
        clone._opaque_counter = self._opaque_counter
        return clone

    # -- statement effects -------------------------------------------------

    def execute(self, stmt) -> None:
        """Apply the symbolic effect of one straight-line core statement."""
        if isinstance(stmt, ast.Assign):
            self.values[stmt.target] = self.eval(stmt.value)
        elif isinstance(stmt, ast.ExcLink):
            self.values[stmt.target] = None
        # FieldStore / Event / ExprStmt have no stack-value effect.

    # -- expression evaluation ----------------------------------------------

    def eval(self, expr) -> E.Expr | None:
        """Symbolic value of an expression, or None when not numeric."""
        if isinstance(expr, ast.IntLit):
            return E.IntConst(expr.value)
        if isinstance(expr, ast.BoolLit):
            return E.BoolConst(expr.value)
        if isinstance(expr, ast.VarRef):
            if expr.name in self.values:
                return self.values[expr.name]
            # Reads of never-written variables are unconstrained symbols.
            return E.IntVar(symbol_name(self.func, expr.name))
        if isinstance(expr, ast.Input):
            return E.IntVar(input_symbol(self.func, expr.site))
        if isinstance(expr, ast.Call):
            return E.IntVar(call_result_symbol(self.func, expr.site))
        if isinstance(expr, (ast.New, ast.NullLit, ast.FieldLoad)):
            return None
        if isinstance(expr, ast.ThrownFlagOf):
            # Bound precisely by the CFET builder (which knows the call
            # occurrence); standalone evaluation treats it as opaque.
            return None
        if isinstance(expr, ast.Unary):
            operand = self.eval(expr.operand)
            if operand is None:
                return None
            op = {"-": E.neg, "!": E.not_}.get(expr.op)
            if op is None:
                raise ValueError(f"unknown unary operator {expr.op!r}")
            return _apply(op, operand)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr)
        raise ValueError(f"cannot evaluate {expr!r}")

    def _eval_binary(self, expr: ast.Binary) -> E.Expr | None:
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        if left is None or right is None:
            return None
        ops = {
            "+": E.add,
            "-": E.sub,
            "*": E.mul,
            "<": E.lt,
            "<=": E.le,
            ">": E.gt,
            ">=": E.ge,
            "==": E.eq,
            "!=": E.ne,
            "&&": E.and_,
            "||": E.or_,
        }
        op = ops.get(expr.op)
        if op is None:
            raise ValueError(f"unknown binary operator {expr.op!r}")
        return _apply(op, left, right)

    def eval_condition(self, expr, opaque_hint: str) -> E.Expr:
        """Symbolic branch condition; unevaluable conditions (a null
        comparison over objects, an int used as a boolean) become
        deterministic opaque booleans."""
        value = self.eval(expr)
        if value is None or value.sort != "bool":
            return E.BoolVar(symbol_name(self.func, f"opaque_{opaque_hint}"))
        return value


def _apply(op, *operands) -> E.Expr | None:
    """``op`` over the operands, or None when they are ill-sorted (an
    int parameter used as a boolean, say): as unevaluable as an object
    operand."""
    try:
        return op(*operands)
    except TypeError:
        return None
