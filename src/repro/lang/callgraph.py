"""Call graph construction and SCC condensation.

The paper (§2.1) clones callee graphs bottom-up over a pre-computed call
graph, collapsing strongly connected components (recursion) and treating
them context-insensitively.  This module computes that structure.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.lang import ast


@dataclass
class CallGraph:
    """Direct call edges plus the SCC condensation used for cloning."""

    edges: dict[str, set[str]] = field(default_factory=dict)
    # scc_of[f] is a frozenset of mutually recursive functions containing f.
    scc_of: dict[str, frozenset] = field(default_factory=dict)
    # SCCs in reverse topological order (callees before callers).
    scc_order: list[frozenset] = field(default_factory=list)

    def callees(self, func: str) -> set[str]:
        return self.edges.get(func, set())

    def is_recursive_edge(self, caller: str, callee: str) -> bool:
        """True when the call stays inside one SCC (handled without cloning)."""
        return self.scc_of[caller] == self.scc_of[callee]

    def bottom_up_functions(self) -> list[str]:
        """All functions, callees before callers."""
        out: list[str] = []
        for scc in self.scc_order:
            out.extend(sorted(scc))
        return out


def call_sites(fn: ast.Function):
    """Yield every :class:`repro.lang.ast.Call` in a function body."""
    for stmt in ast.walk_statements(fn.body):
        for expr in ast.walk_expressions(stmt):
            yield from _calls_in(expr)


def _calls_in(expr):
    if isinstance(expr, ast.Call):
        yield expr
        for arg in expr.args:
            yield from _calls_in(arg)
    elif isinstance(expr, ast.Binary):
        yield from _calls_in(expr.left)
        yield from _calls_in(expr.right)
    elif isinstance(expr, ast.Unary):
        yield from _calls_in(expr.operand)


def build_call_graph(summaries: Mapping) -> CallGraph:
    """Build the call graph from per-function summaries (program order;
    :class:`~repro.lang.summary.FunctionSummary`); unknown callees are
    ignored (extern calls)."""
    edges = {
        name: {callee for callee in summary.callees if callee in summaries}
        for name, summary in summaries.items()
    }
    order = list(_sccs_callees_first(edges))
    scc_of = {func: scc for scc in order for func in scc}
    return CallGraph(edges=edges, scc_of=scc_of, scc_order=order)


def _sccs_callees_first(edges: dict[str, set[str]]):
    """Tarjan's algorithm, iteratively (call chains can be deeper than
    the interpreter's recursion limit).  An SCC is emitted when its root
    is finished, i.e. after every SCC it can reach -- reverse
    topological order of the condensation, callees before callers.
    Roots are tried in definition order and callees in name order, so
    the result is deterministic."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    for root in edges:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(sorted(edges[root])))]
        while work:
            node, callees = work[-1]
            for callee in callees:
                if callee not in index:
                    index[callee] = low[callee] = len(index)
                    stack.append(callee)
                    on_stack.add(callee)
                    work.append((callee, iter(sorted(edges[callee]))))
                    break
                if callee in on_stack:
                    low[node] = min(low[node], index[callee])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    members = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        members.append(member)
                        if member == node:
                            break
                    yield frozenset(members)
