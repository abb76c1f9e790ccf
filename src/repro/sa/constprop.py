"""Constant propagation with static branch folding.

A forward pass over the scalar environment: the abstract value is a dict
mapping variable names to known ``int``/``bool`` constants (absent =
unknown); join intersects agreeing bindings.  On top of the fixpoint,
:func:`fold_constant_branches` rewrites function bodies, replacing every
``if`` whose condition evaluates to a definite boolean with the taken arm
-- so the statically-infeasible arm never reaches the CFET builder, the
graph generators, or the solver.

Safety: the mini-language is deterministic and conditions are pure (calls
are hoisted by ``normalize_calls``), so a branch whose condition the
abstract environment proves constant takes the same arm on *every*
concrete execution; the dropped arm's path constraints were all
unsatisfiable.  Folding therefore preserves the feasible path set exactly
-- allocation sites, line numbers and call records in the surviving arm
are untouched (no reparse), so warning identity is preserved.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.cfg import build_cfg
from repro.sa.framework import DataflowProblem, solve

#: Evaluation result for expressions the environment cannot decide.
UNKNOWN = object()


def eval_expr(expr, env: dict):
    """Evaluate ``expr`` under ``env``; :data:`UNKNOWN` when undecidable."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.BoolLit):
        return expr.value
    if isinstance(expr, ast.VarRef):
        return env.get(expr.name, UNKNOWN)
    if isinstance(expr, ast.Unary):
        operand = eval_expr(expr.operand, env)
        if operand is UNKNOWN:
            return UNKNOWN
        if expr.op == "-" and isinstance(operand, int):
            return -operand
        if expr.op == "!" and isinstance(operand, bool):
            return not operand
        return UNKNOWN
    if isinstance(expr, ast.Binary):
        return _eval_binary(expr, env)
    return UNKNOWN  # New/Call/Input/FieldLoad/ThrownFlagOf/NullLit


def _eval_binary(expr: ast.Binary, env: dict):
    left = eval_expr(expr.left, env)
    # Short-circuit forms that are decided by one known side.
    if expr.op == "&&" and left is False:
        return False
    if expr.op == "||" and left is True:
        return True
    right = eval_expr(expr.right, env)
    if expr.op == "&&" and right is False:
        return False
    if expr.op == "||" and right is True:
        return True
    if left is UNKNOWN or right is UNKNOWN:
        return UNKNOWN
    if expr.op in ("&&", "||"):
        if isinstance(left, bool) and isinstance(right, bool):
            return (left and right) if expr.op == "&&" else (left or right)
        return UNKNOWN
    # Arithmetic and comparisons require ints on both sides; note that
    # bool is an int subclass in Python but not in the mini-language.
    if isinstance(left, bool) or isinstance(right, bool):
        if expr.op == "==":
            return left == right
        if expr.op == "!=":
            return left != right
        return UNKNOWN
    if not (isinstance(left, int) and isinstance(right, int)):
        return UNKNOWN
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    if expr.op == "<":
        return left < right
    if expr.op == "<=":
        return left <= right
    if expr.op == ">":
        return left > right
    if expr.op == ">=":
        return left >= right
    if expr.op == "==":
        return left == right
    if expr.op == "!=":
        return left != right
    return UNKNOWN


class ConstProp(DataflowProblem):
    """Forward constant environments: ``{var: known constant}``."""

    direction = "forward"

    def boundary(self, cfg):
        return {}

    def join(self, a: dict, b: dict) -> dict:
        if a == b:
            return a
        return {
            var: value
            for var, value in a.items()
            if var in b and b[var] == value and type(b[var]) is type(value)
        }

    def transfer(self, block, env: dict) -> dict:
        out = dict(env)
        for stmt in block.statements:
            if isinstance(stmt, ast.Assign):
                value = eval_expr(stmt.value, out)
                if value is UNKNOWN:
                    out.pop(stmt.target, None)
                else:
                    out[stmt.target] = value
            elif isinstance(stmt, ast.ExcLink):
                out.pop(stmt.target, None)
        return out


def branch_verdicts(fn: ast.Function) -> dict[int, bool]:
    """``id(cond) -> bool`` for every branch provably constant in ``fn``.

    Keyed by expression identity: the CFG shares condition objects with
    the AST's ``If`` nodes, so the verdict map carries straight back to
    the statements to rewrite.  Unreachable blocks get no verdict (their
    branches disappear when an enclosing fold removes them).
    """
    cfg = build_cfg(fn)
    solution = solve(cfg, ConstProp())
    verdicts: dict[int, bool] = {}
    for block in cfg.blocks.values():
        if block.branch_cond is None:
            continue
        env = solution.block_out.get(block.block_id)
        if env is None:
            continue
        value = eval_expr(block.branch_cond, env)
        if isinstance(value, bool):
            verdicts[id(block.branch_cond)] = value
    return verdicts


def fold_constant_branches(program: ast.Program,
                           counts: dict | None = None) -> int:
    """Fold every provably-constant ``if`` in every function.

    Re-solves after each rewrite round, because folding one branch can
    make enclosing or subsequent conditions constant.  Returns the number
    of branches removed; ``counts`` receives it per function.
    """
    total = 0
    for name, fn in program.functions.items():
        before = total
        while True:
            verdicts = branch_verdicts(fn)
            if not verdicts:
                break
            folded, body = _rewrite_body(fn.body, verdicts)
            if not folded:
                break
            fn.body = body
            total += folded
        if counts is not None:
            counts[name] = total - before
    return total


def _rewrite_body(body: list, verdicts: dict[int, bool]) -> tuple[int, list]:
    folded = 0
    out: list = []
    for stmt in body:
        if isinstance(stmt, ast.If):
            verdict = verdicts.get(id(stmt.cond))
            if verdict is not None:
                taken = stmt.then_body if verdict else stmt.else_body
                inner_folds, inner = _rewrite_body(taken, verdicts)
                folded += 1 + inner_folds
                out.extend(inner)
                continue
            then_folds, stmt.then_body = _rewrite_body(
                stmt.then_body, verdicts
            )
            else_folds, stmt.else_body = _rewrite_body(
                stmt.else_body, verdicts
            )
            folded += then_folds + else_folds
        out.append(stmt)
    return folded, out
