"""Per-method control-flow execution trees (paper §3.1).

A CFET is a binary tree whose nodes are *extended basic blocks* (straight-
line statement runs fused across fall-throughs).  Non-leaf nodes end at a
branch conditional and store its symbolic condition; leaves end at the
procedure exit.  Node ids follow the paper's Eytzinger-style numbering:

* the root has id 0,
* a node with id n has false child 2n+1 and true child 2n+2,

so the parent of ``n`` is ``(n - 1) >> 1`` and an interval ``[a, b]``
uniquely determines the path from ``a`` down to ``b``.

The builder performs symbolic execution over the core (lowered) AST: loop-
free, exception-free bodies where the only control flow is ``if``/``else``
and ``return``.  Statements after an ``if`` join are duplicated into both
subtrees, which is exactly the path-explicit representation the CFET wants.
A condition that evaluates to an ``and``/``or`` branches once per operand,
in short-circuit order (:func:`_split`), so every node condition is a
literal and every path constraint a conjunction of literals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang import ast
from repro.lang.transform import THROWN_FLAG
from repro.smt import expr as E
from repro.symbolic.evaluator import SymbolicEnv, symbol_name


def parent_id(node_id: int) -> int:
    """Parent of a CFET node (root is 0; false child 2n+1, true 2n+2)."""
    if node_id <= 0:
        raise ValueError("the root node has no parent")
    return (node_id - 1) >> 1


def is_true_child(node_id: int) -> bool:
    return node_id % 2 == 0


@dataclass
class CallRecord:
    """One call-site *occurrence* inside a CFET node.

    ``cid``/``rid`` are program-unique ids for this occurrence's call and
    return edges in the ICFET.  ``equations`` bind callee formals to the
    caller's symbolic actuals; ``result_symbol`` is the caller-side symbol
    standing for the returned value (None for bare call statements).
    ``stmt_index`` is the statement's index within the node, used by the
    dataflow graph to split the node into segments.
    """

    cid: int
    rid: int
    caller: str
    callee: str
    node_id: int
    stmt_index: int
    call: ast.Call
    lhs: str | None
    equations: tuple = ()
    result_symbol: str | None = None
    # Caller-side symbol for the callee's __thrown register after the call
    # (set when the lowering probes the call with ThrownFlagOf).
    thrown_symbol: str | None = None


@dataclass
class CfetNode:
    node_id: int
    statements: list = field(default_factory=list)
    condition: E.Expr | None = None  # None for leaves
    calls: list[CallRecord] = field(default_factory=list)
    return_value: E.Expr | None = None  # symbolic value returned (leaves)
    return_var: str | None = None  # variable returned, when it is a var
    # Symbolic value of the __thrown register at this leaf (exception
    # lowering); lets return equations correlate caller-side probes.
    thrown_value: E.Expr | None = None

    @property
    def is_leaf(self) -> bool:
        """Leaves end at the procedure exit (no branch condition)."""
        return self.condition is None


@dataclass
class Cfet:
    func: str
    nodes: dict[int, CfetNode] = field(default_factory=dict)

    @property
    def root(self) -> CfetNode:
        """The entry node (id 0)."""
        return self.nodes[0]

    @property
    def leaves(self) -> list[CfetNode]:
        """All exit nodes."""
        return [n for n in self.nodes.values() if n.is_leaf]

    def node(self, node_id: int) -> CfetNode:
        """The node with the given Eytzinger id."""
        return self.nodes[node_id]

    def path_to_root(self, node_id: int):
        """Yield node ids from ``node_id`` up to the root (inclusive)."""
        current = node_id
        while True:
            yield current
            if current == 0:
                return
            current = parent_id(current)

    def is_ancestor(self, a: int, b: int) -> bool:
        """True when ``a`` lies on the root path of ``b`` (or a == b)."""
        current = b
        while current >= a:
            if current == a:
                return True
            if current == 0:
                return False
            current = parent_id(current)
        return False

    def condition_of_edge(self, child_id: int) -> E.Expr:
        """Branch literal contributed by the edge parent -> child."""
        cond = self.nodes[parent_id(child_id)].condition
        if cond is None:
            raise ValueError(f"node {parent_id(child_id)} is a leaf")
        return cond if is_true_child(child_id) else E.not_(cond)

    def path_constraint(self, start: int, end: int) -> E.Expr:
        """Algorithm 1: conjunction of branch literals on [start, end]."""
        literals = []
        current = end
        while current != start:
            if current == 0:
                raise ValueError(f"{start} is not an ancestor of {end}")
            literals.append(self.condition_of_edge(current))
            current = parent_id(current)
        return E.and_(*literals)


class _IdAllocator:
    """Shared allocator for call/return edge ids across a whole program."""

    def __init__(self) -> None:
        self.next_id = 0

    def fresh(self) -> int:
        value = self.next_id
        self.next_id += 1
        return value


class _CfetBuilder:
    # Safety valve: refuse to build CFETs beyond this many nodes (callers
    # should keep per-function branching modest; see DESIGN.md).
    MAX_NODES = 1 << 17

    def __init__(self, fn: ast.Function, ids: _IdAllocator,
                 formals: dict[str, tuple[str, ...]] | None = None):
        self.fn = fn
        self.ids = ids
        # Callee name -> namespaced formal-parameter symbols, used for
        # parameter-passing equations; unknown callees get no equations.
        self.formals = formals or {}
        self.cfet = Cfet(fn.name)
        self.occurrence = 0

    def build(self) -> Cfet:
        # Depth first, true child first: that order numbers call records
        # and input symbols.  A pending child continues with a statement
        # list, or with a (condition, on_true, on_false, env) branch.
        pending = [(0, list(self.fn.body),
                    SymbolicEnv(self.fn.name, self.fn.params))]
        while pending:
            node_id, todo, env = pending.pop()
            node = self._node(node_id)
            if isinstance(todo, list):
                todo = self._walk(node, todo, env.copy())
            if todo is not None:
                node.condition, on_true, on_false, env = _split(*todo)
                pending.append((2 * node_id + 1, on_false, env))
                pending.append((2 * node_id + 2, on_true, env))
        return self.cfet

    def _node(self, node_id: int) -> CfetNode:
        if len(self.cfet.nodes) >= self.MAX_NODES:
            raise OverflowError(
                f"CFET for {self.fn.name!r} exceeds {self.MAX_NODES} nodes;"
                " reduce branching or the unroll factor"
            )
        node = self.cfet.nodes[node_id] = CfetNode(node_id)
        return node

    def _walk(self, node: CfetNode, stmts: list, env: SymbolicEnv):
        """Run ``stmts`` into ``node``; the branch it ends at, or None
        at a leaf."""
        for idx, stmt in enumerate(stmts):
            if isinstance(stmt, ast.Return):
                if stmt.value is not None:
                    node.return_value = env.eval(stmt.value)
                    if isinstance(stmt.value, ast.VarRef):
                        node.return_var = stmt.value.name
                node.thrown_value = env.values.get(THROWN_FLAG)
                return None
            if isinstance(stmt, ast.If):
                cond = env.eval_condition(stmt.cond, f"{node.node_id}_{idx}")
                rest = stmts[idx + 1 :]
                return cond, stmt.then_body + rest, stmt.else_body + rest, env
            self._execute(node, stmt, env)
        # Fell off the end: implicit return, leaf node.
        node.thrown_value = env.values.get(THROWN_FLAG)
        return None

    def _execute(self, node: CfetNode, stmt, env: SymbolicEnv) -> None:
        call = _call_of(stmt)
        if call is not None:
            record = self._record_call(node, stmt, call, env)
            node.calls.append(record)
            if record.result_symbol is not None:
                env.values[record.lhs] = E.IntVar(record.result_symbol)
            node.statements.append(stmt)
            return
        if isinstance(stmt, ast.Assign) and isinstance(
            stmt.value, ast.ThrownFlagOf
        ):
            record = self._find_call_record(node, stmt.value.call_site)
            if record is not None:
                symbol = symbol_name(self.fn.name, f"thr_occ{record.cid}")
                record.thrown_symbol = symbol
                env.values[stmt.target] = E.IntVar(symbol)
            else:
                env.values[stmt.target] = None
            node.statements.append(stmt)
            return
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Input):
            # Occurrence-unique input symbol: unroll-duplicated sites must
            # not share one symbol, or iterations become correlated.
            self.occurrence += 1
            name = symbol_name(self.fn.name, f"in_occ{self.occurrence}")
            env.values[stmt.target] = E.IntVar(name)
            node.statements.append(stmt)
            return
        env.execute(stmt)
        node.statements.append(stmt)

    @staticmethod
    def _find_call_record(node: CfetNode, call_site: int):
        """The most recent call record in this node for one call site."""
        for record in reversed(node.calls):
            if record.call.site == call_site:
                return record
        return None

    def _record_call(self, node: CfetNode, stmt, call: ast.Call,
                     env: SymbolicEnv) -> CallRecord:
        equations = []
        # Formal/actual equations only exist for numeric actuals; object
        # parameters are wired by the alias graph instead.
        for formal, actual in zip(self.formals.get(call.func, ()), call.args):
            value = env.eval(actual)
            if value is not None and value.sort == "int":
                equations.append(E.eq(E.IntVar(formal), value))
        lhs = stmt.target if isinstance(stmt, ast.Assign) else None
        cid = self.ids.fresh()
        rid = self.ids.fresh()
        result_symbol = None
        if lhs is not None:
            result_symbol = symbol_name(self.fn.name, f"ret_occ{cid}")
        return CallRecord(
            cid=cid,
            rid=rid,
            caller=self.fn.name,
            callee=call.func,
            node_id=node.node_id,
            stmt_index=len(node.statements),
            call=call,
            lhs=lhs,
            equations=tuple(equations),
            result_symbol=result_symbol,
        )


def _split(cond: E.Expr, on_true, on_false, env: SymbolicEnv):
    """The first literal of a branch on ``cond`` and its continuations.

    An ``and``/``or`` branches on its first operand; the short-circuit
    side continues to a fresh node that branches on the rest, and a
    ``not`` over one swaps the continuations.  So every node condition is
    a literal and every path constraint a conjunction of literals."""
    while True:
        if cond.kind == E.NOT and cond.args[0].kind in (E.AND, E.OR):
            cond, on_true, on_false = cond.args[0], on_false, on_true
        elif cond.kind == E.AND:
            rest = (E.and_(*cond.args[1:]), on_true, on_false, env)
            cond, on_true = cond.args[0], rest
        elif cond.kind == E.OR:
            rest = (E.or_(*cond.args[1:]), on_true, on_false, env)
            cond, on_false = cond.args[0], rest
        else:
            return cond, on_true, on_false, env


def _call_of(stmt) -> ast.Call | None:
    if isinstance(stmt, ast.ExprStmt):
        return stmt.call
    if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
        return stmt.value
    return None


def build_cfet(fn: ast.Function, ids: _IdAllocator | None = None,
               formals: dict[str, tuple[str, ...]] | None = None) -> Cfet:
    """Build the CFET of one core-form function."""
    return _CfetBuilder(fn, ids or _IdAllocator(), formals).build()
