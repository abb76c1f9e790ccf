"""Interprocedural FSM-relevance slicing (tentpole pass 3).

Walks backward from the checker specs' tracked types and events to decide
which variables, fields and functions can possibly affect a tracked
object, so the graph generators skip everything else *before* the closure
ever sees an edge.

Two levels, with two distinct safety arguments:

**Alias-level variable relevance.**  Build an undirected adjacency over
``(func, var)`` nodes and field names: assignments link their two
variables, field stores/loads link both the base and the value/target to
the field node, parameter passing links actuals to formals, returns link
callee return variables to caller LHSs, and ``ExcLink`` links the catch
target to the callee's ``__exc`` register.  Every edge the alias-graph
builder can emit connects vertices whose names are adjacent here (field
edges via the shared field node), and an allocation's object vertex
attaches to its target variable -- so the name-level connected component
of a variable *over-approximates* the alias-graph connected component of
all its vertices.  Seeding from tracked-type allocation targets therefore
yields: any alias-graph edge with an irrelevant endpoint lies in a
component containing no tracked object.  The closure grammar only
composes edges sharing a vertex, so facts computed inside such a
component can never meet a tracked object's flows-to facts, never seed a
state edge, and never answer an event's alias query (the phase-2 index
only keeps flows-to edges out of tracked objects).  Dropping those edges
changes no retained fact.

**Flow-level (phase 2) function relevance.**  A function subtree is
relevant when it allocates a tracked type, performs a tracked-FSM event
on a relevant base, or (transitively) calls a relevant function.  Calls
into irrelevant subtrees are built as step-over cf edges -- exactly the
encoding the builder already uses for extern callees -- instead of
call/return edges plus the callee clone.  A state fact traversing the
through-callee path acquires ``(C cid, I[0, leaf], R rid)``, which the
encoding algebra cancels to nothing once the callee path completes
(:func:`repro.cfet.encoding.merge` case 3), leaving the same
encoding as the single-interval step-over; at least one callee leaf is
always feasible because the leaves' branch constraints partition the
input space.  Irrelevant subtrees contain no tracked events or
allocations by construction, so no state change and no seed is lost.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.lang.callgraph import CallGraph
from repro.lang.types import ObjectInfo


@dataclass
class RelevanceInfo:
    """Which names and functions can affect a tracked object."""

    relevant_vars: set = field(default_factory=set)  # (func, var)
    relevant_fields: set = field(default_factory=set)
    #: Functions whose clone subtrees phase 2 must build.
    flow_relevant_funcs: set = field(default_factory=set)
    #: Functions with at least one relevant object variable (phase 1).
    alias_relevant_funcs: set = field(default_factory=set)

    def var_relevant(self, func: str, var: str) -> bool:
        return (func, var) in self.relevant_vars

    def func_flow_relevant(self, func: str) -> bool:
        return func in self.flow_relevant_funcs


def compute_relevance(
    summaries: Mapping,
    callgraph: CallGraph,
    info: ObjectInfo,
    tracked_types: set[str],
    tracked_events: set[str],
) -> RelevanceInfo:
    """Backward slice from tracked types/events to relevant names, solved
    over per-function summaries (:class:`~repro.lang.summary.FunctionSummary`,
    program order).  A summary records every allocation, so which types
    are tracked is decided here and a summary serves any checker set."""
    adjacency: dict = {}
    seeds: list = []

    def link(a, b) -> None:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)

    for summary in summaries.values():
        facts = summary.relevance
        for a, b in facts.links:
            link(a, b)
        for callee, args, lhs in facts.calls:
            other = summaries.get(callee)
            if other is None:
                continue
            for formal, actual in zip(other.relevance.formals, args):
                if actual is not None:
                    link(actual, formal)
            if lhs is not None:
                for ret in other.relevance.returns:
                    link(lhs, ret)
        seeds.extend(
            node for type_name, node in facts.allocs
            if type_name in tracked_types
        )

    # Flood from the tracked allocation targets.
    reached: set = set()
    stack = seeds
    while stack:
        node = stack.pop()
        if node not in reached:
            reached.add(node)
            stack.extend(adjacency.get(node, ()))

    out = RelevanceInfo()
    for node in reached:
        if type(node) is tuple:
            out.relevant_vars.add(node)
        else:
            out.relevant_fields.add(node)
    for func, vars_ in info.object_vars.items():
        if any((func, v) in out.relevant_vars for v in vars_):
            out.alias_relevant_funcs.add(func)

    out.flow_relevant_funcs = _flow_relevant(
        summaries, callgraph, tracked_types, tracked_events, reached
    )
    return out


def _flow_relevant(
    summaries: Mapping,
    callgraph: CallGraph,
    tracked_types: set[str],
    tracked_events: set[str],
    reached: set,
) -> set[str]:
    """Functions whose subtree can allocate or step a tracked object:
    those that do so themselves, and their callers, transitively."""
    callers: dict[str, list[str]] = {}
    for caller, callees in callgraph.edges.items():
        for callee in callees:
            callers.setdefault(callee, []).append(caller)
    stack = [
        name for name, summary in summaries.items()
        if any(t in tracked_types for t, _ in summary.relevance.allocs)
        or any(
            method in tracked_events and base in reached
            for method, base in summary.relevance.events
        )
    ]
    relevant: set[str] = set()
    while stack:
        func = stack.pop()
        if func not in relevant:
            relevant.add(func)
            stack.extend(callers.get(func, ()))
    return relevant
