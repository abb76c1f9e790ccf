"""Backward liveness and dead-store elimination for scalar assignments.

The abstract value is the set of variable names that may be read later.
:func:`eliminate_dead_stores` removes only *pure scalar* stores: the
target is not an object variable (those feed the alias graph) and the
right-hand side is built solely from literals, variable reads and
arithmetic -- no calls (call records allocate cid/rid), no ``input()``
(occurrence numbering feeds constraint symbols), no allocation, no heap
or thrown-flag reads.  A store passing that filter writes a value no
branch condition, return value, call argument, event or thrown-flag read
ever observes, so the CFET's symbolic environments and every path
constraint are unchanged -- the closure input shrinks with byte-identical
reports.

``__thrown`` is pinned live at every exit: the CFET builder reads it off
the leaf environment to build return-correlation equations even though no
statement mentions it.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.cfg import build_cfg
from repro.lang.transform import THROWN_FLAG
from repro.lang.types import ObjectInfo
from repro.sa.framework import DataflowProblem, solve

_PURE_LEAVES = (ast.IntLit, ast.BoolLit, ast.VarRef)


def expr_uses(expr, out: set | None = None) -> set:
    """Variable names read by ``expr`` (transitively)."""
    if out is None:
        out = set()
    if isinstance(expr, ast.VarRef):
        out.add(expr.name)
    elif isinstance(expr, ast.FieldLoad):
        out.add(expr.base)
    elif isinstance(expr, ast.Binary):
        expr_uses(expr.left, out)
        expr_uses(expr.right, out)
    elif isinstance(expr, ast.Unary):
        expr_uses(expr.operand, out)
    elif isinstance(expr, ast.Call):
        for arg in expr.args:
            expr_uses(arg, out)
    return out


def stmt_uses(stmt) -> set:
    """Variable names read by one core statement (ignoring its writes)."""
    if isinstance(stmt, ast.Assign):
        return expr_uses(stmt.value)
    if isinstance(stmt, ast.FieldStore):
        return {stmt.base, stmt.value}
    if isinstance(stmt, ast.Event):
        uses = {stmt.base}
        for arg in stmt.args:
            expr_uses(arg, uses)
        return uses
    if isinstance(stmt, ast.ExprStmt):
        return expr_uses(stmt.call)
    return set()


def is_pure_scalar_expr(expr) -> bool:
    """True when ``expr`` reads no heap/input/call state and allocates
    nothing -- removable without touching constraints or the alias graph."""
    if isinstance(expr, _PURE_LEAVES):
        return True
    if isinstance(expr, ast.Binary):
        return is_pure_scalar_expr(expr.left) and is_pure_scalar_expr(
            expr.right
        )
    if isinstance(expr, ast.Unary):
        return is_pure_scalar_expr(expr.operand)
    return False


class Liveness(DataflowProblem):
    """May-liveness of variable names, backward over the CFG."""

    direction = "backward"

    def boundary(self, cfg):
        return frozenset((THROWN_FLAG,))

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def transfer(self, block, live_out: frozenset) -> frozenset:
        live = set(live_out)
        if block.branch_cond is not None:
            expr_uses(block.branch_cond, live)
        if block.return_value is not None:
            expr_uses(block.return_value, live)
        for stmt in reversed(block.statements):
            if isinstance(stmt, ast.Assign):
                live.discard(stmt.target)
                expr_uses(stmt.value, live)
            else:
                live |= stmt_uses(stmt)
        return frozenset(live)


def _dead_stores(fn: ast.Function, scalar_ok) -> list:
    """Assign statements (by identity) provably dead in ``fn``."""
    cfg = build_cfg(fn)
    solution = solve(cfg, Liveness())
    dead: list = []
    for block in cfg.blocks.values():
        live_out = solution.block_out.get(block.block_id)
        if live_out is None:
            continue  # unreachable backwards: no exit below, keep stores
        live = set(live_out)
        if block.branch_cond is not None:
            expr_uses(block.branch_cond, live)
        if block.return_value is not None:
            expr_uses(block.return_value, live)
        for stmt in reversed(block.statements):
            if isinstance(stmt, ast.Assign):
                if (
                    stmt.target not in live
                    and scalar_ok(stmt.target)
                    and is_pure_scalar_expr(stmt.value)
                ):
                    dead.append(stmt)
                    continue  # removed: its reads don't count as uses
                live.discard(stmt.target)
                expr_uses(stmt.value, live)
            else:
                live |= stmt_uses(stmt)
    return dead


def eliminate_dead_stores(program: ast.Program, info: ObjectInfo,
                          counts: dict | None = None) -> int:
    """Remove dead pure-scalar stores everywhere; returns the count, and
    ``counts`` receives it per function.

    Iterates per function until no store is removable, so chains
    (``a = b; b`` otherwise unread) cascade.  A function's result reads
    nothing of ``info`` but its own ``object_vars`` slice.
    """
    total = 0
    for name, fn in program.functions.items():
        before = total
        object_vars = info.object_vars.get(name, set())

        def scalar_ok(var: str) -> bool:
            return var != THROWN_FLAG and var not in object_vars

        while True:
            dead = _dead_stores(fn, scalar_ok)
            if not dead:
                break
            dead_ids = {id(stmt) for stmt in dead}
            _filter_body(fn.body, dead_ids)
            total += len(dead)
        if counts is not None:
            counts[name] = total - before
    return total


def _filter_body(body: list, dead_ids: set) -> None:
    body[:] = [stmt for stmt in body if id(stmt) not in dead_ids]
    for stmt in body:
        if isinstance(stmt, ast.If):
            _filter_body(stmt.then_body, dead_ids)
            _filter_body(stmt.else_body, dead_ids)
