"""Per-function summaries: the local facts the whole-program passes read.

Type inference (:func:`repro.lang.types.infer_object_vars`), relevance
slicing (:func:`repro.sa.relevance.compute_relevance`) and the call
graph (:func:`repro.lang.callgraph.build_call_graph`) are fixpoints over
the whole program, but each reads a function's body only for a handful
of local facts.  This module walks a body once and keeps those facts;
the three passes solve over the summaries alone, so a function whose
body did not change is never walked again (the serve daemon keeps each
compiled function's summary, DESIGN.md §16).

A summary names other functions only by the symbol its calls were
linked to.  Whether such a callee exists, and which formals it has, is
looked up when solving, since that is the part another file can change.
The daemon keeps a summary per function for as long as its body, so
the sets a summary stands for are tuples, each member once, in body
order: a small frozenset costs four times a small tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang import ast
from repro.lang.callgraph import call_sites
from repro.lang.transform import EXC_REGISTER

#: A call argument that is an allocation or ``null``: the formal it
#: binds to holds a reference, whatever the caller does.
OBJECT = True


@dataclass(frozen=True, slots=True)
class TypeFacts:
    """What reference-type inference reads of one function."""

    params: tuple
    #: Variables holding a reference whatever the other functions do.
    seeds: tuple
    #: ``(target, source)``: ``target = source``.
    copies: tuple
    #: ``(target, callee)``: ``target = callee(...)``.
    results: tuple
    #: ``(callee, args)`` of each call statement; an argument is a
    #: variable name, :data:`OBJECT`, or None (anything else).
    calls: tuple
    #: Returns an allocation, ``null`` or a field load.
    returns_object: bool
    #: Variables and callees whose value a ``return`` hands back.
    return_vars: tuple
    return_calls: tuple
    #: ``(site, type name, callee, position)`` of each allocation in
    #: body order; ``callee`` is None unless the allocation is passed as
    #: argument ``position`` of a call, whose callee must then exist and
    #: have that formal for the site's type to be recorded.
    sites: tuple


@dataclass(frozen=True, slots=True)
class RelevanceFacts:
    """What relevance slicing reads of one function: its variables as
    ``(function, name)`` nodes, a field as its name."""

    #: Node pairs a copy, a field load or store or an exception link
    #: joins.
    links: tuple
    #: ``(callee, args, lhs)`` of each call statement: an argument's
    #: node when it is a variable, else None; ``lhs`` None for a bare
    #: call.
    calls: tuple
    #: The nodes of its parameters and of the variables it returns.
    formals: tuple
    returns: tuple
    #: ``(type name, target node)`` of each allocation statement.
    allocs: tuple
    #: ``(method, base node)`` of each event.
    events: tuple


@dataclass(frozen=True, slots=True)
class FunctionSummary:
    """Everything the three whole-program passes read of one function.

    ``types`` comes from the body type inference reads -- with
    reduction on, the folded body before dead-store elimination -- and
    ``relevance`` and ``callees`` from the final one.
    """

    types: TypeFacts
    relevance: RelevanceFacts
    #: Every callee name its calls were linked to, extern ones included.
    callees: tuple


def _once(items: list) -> tuple:
    """``items`` without repeats, in first-seen order."""
    return tuple(dict.fromkeys(items)) if items else ()


def type_facts(fn: ast.Function) -> TypeFacts:
    """One walk over ``fn``'s body."""
    seeds, copies, results, calls, sites = [], [], [], [], []
    returns_object = False
    return_vars, return_calls = [], []

    def call(value: ast.Call) -> None:
        args = []
        for position, arg in enumerate(value.args):
            kind = type(arg)
            if kind is ast.VarRef:
                args.append(arg.name)
            elif kind is ast.New or kind is ast.NullLit:
                args.append(OBJECT)
                if kind is ast.New:
                    sites.append((arg.site, arg.type_name, value.func,
                                  position))
            else:
                args.append(None)
        calls.append((value.func, tuple(args)))

    for stmt in ast.walk_statements(fn.body):
        kind = type(stmt)
        if kind is ast.Assign:
            target, value = stmt.target, stmt.value
            vkind = type(value)
            if vkind is ast.New:
                seeds.append(target)
                sites.append((value.site, value.type_name, None, 0))
            elif vkind is ast.NullLit or vkind is ast.FieldLoad:
                seeds.append(target)
            elif vkind is ast.VarRef:
                copies.append((target, value.name))
            elif vkind is ast.Call:
                results.append((target, value.func))
                call(value)
            # Every function's exception register is an object variable.
            if target == EXC_REGISTER:
                seeds.append(target)
        elif kind is ast.FieldStore:
            seeds.append(stmt.base)
            seeds.append(stmt.value)
        elif kind is ast.Event:
            seeds.append(stmt.base)
        elif kind is ast.ExcLink:
            seeds.append(stmt.target)
        elif kind is ast.ExprStmt:
            call(stmt.call)
        elif kind is ast.Return:
            value = stmt.value
            vkind = type(value)
            if vkind is ast.New or vkind is ast.NullLit \
                    or vkind is ast.FieldLoad:
                returns_object = True
                if vkind is ast.New:
                    sites.append((value.site, value.type_name, None, 0))
            elif vkind is ast.VarRef:
                return_vars.append(value.name)
            elif vkind is ast.Call:
                return_calls.append(value.func)
    return TypeFacts(
        params=tuple(fn.params), seeds=_once(seeds), copies=tuple(copies),
        results=tuple(results), calls=tuple(calls),
        returns_object=returns_object, return_vars=_once(return_vars),
        return_calls=_once(return_calls), sites=tuple(sites),
    )


def relevance_facts(fn: ast.Function) -> RelevanceFacts:
    """One walk over ``fn``'s body."""
    name = fn.name
    nodes: dict[str, tuple] = {}

    def var(v: str) -> tuple:
        node = nodes.get(v)
        if node is None:
            node = nodes[v] = (name, v)
        return node

    def call(value: ast.Call, lhs) -> None:
        args = tuple(
            var(arg.name) if type(arg) is ast.VarRef else None
            for arg in value.args
        )
        calls.append((value.func, args, lhs))

    links, calls, allocs, events, returns = [], [], [], [], []
    for stmt in ast.walk_statements(fn.body):
        kind = type(stmt)
        if kind is ast.Assign:
            value = stmt.value
            vkind = type(value)
            if vkind is ast.New:
                allocs.append((value.type_name, var(stmt.target)))
            elif vkind is ast.VarRef:
                links.append((var(stmt.target), var(value.name)))
            elif vkind is ast.FieldLoad:
                links.append((var(stmt.target), value.fieldname))
                links.append((var(value.base), value.fieldname))
            elif vkind is ast.Call:
                call(value, var(stmt.target))
        elif kind is ast.FieldStore:
            links.append((var(stmt.value), stmt.fieldname))
            links.append((var(stmt.base), stmt.fieldname))
        elif kind is ast.ExcLink:
            links.append((var(stmt.target), (stmt.callee, EXC_REGISTER)))
        elif kind is ast.ExprStmt:
            call(stmt.call, None)
        elif kind is ast.Event:
            events.append((stmt.method, var(stmt.base)))
        elif kind is ast.Return and type(stmt.value) is ast.VarRef:
            returns.append(var(stmt.value.name))
    return RelevanceFacts(
        links=tuple(links), calls=tuple(calls),
        formals=tuple(var(p) for p in fn.params),
        returns=_once(returns), allocs=tuple(allocs), events=tuple(events),
    )


def summarize(fn: ast.Function, types: TypeFacts | None = None
              ) -> FunctionSummary:
    """``fn``'s summary; ``types`` are its type facts read off an earlier
    form of the body (default: this one)."""
    return FunctionSummary(
        types=type_facts(fn) if types is None else types,
        relevance=relevance_facts(fn),
        callees=_once([call.func for call in call_sites(fn)]),
    )


def summarize_program(program: ast.Program) -> dict[str, FunctionSummary]:
    """Every function's summary, in program order, all from its body as
    it stands."""
    return {name: summarize(fn) for name, fn in program.functions.items()}


def type_facts_of(summaries: dict) -> dict[str, TypeFacts]:
    """The type facts of a summary map, in its order."""
    return {name: s.types for name, s in summaries.items()}
