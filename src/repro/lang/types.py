"""Lightweight reference-type inference.

The alias graph only needs vertices for *object* (reference-typed)
variables; integer/boolean variables live in path constraints instead.
This pass computes, per function, the set of object variables, the set of
object-returning functions, and the allocation type observable for each
allocation site.  It is a flow-insensitive fixpoint over the whole program,
solved over per-function summaries (:mod:`repro.lang.summary`).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.lang.summary import OBJECT, TypeFacts


@dataclass
class ObjectInfo:
    """Result of reference-type inference."""

    object_vars: dict[str, set[str]] = field(default_factory=dict)
    returns_object: set[str] = field(default_factory=set)
    # allocation site id -> type name
    site_types: dict[int, str] = field(default_factory=dict)

    def is_object_var(self, func: str, var: str) -> bool:
        return var in self.object_vars.get(func, set())


def infer_object_vars(facts: Mapping[str, TypeFacts]) -> ObjectInfo:
    """The least fixpoint of which variables hold references, solved
    over per-function :class:`~repro.lang.summary.TypeFacts` (one per
    function, in program order).

    Every rule is monotone, so the fixpoint is reachability: a variable
    ``(func, var)`` or a function's return value (``func``) holds a
    reference when a seed reaches it along the links the facts imply --
    copies, results and returned values one way, parameter passing both
    ways.
    """
    info = ObjectInfo()
    object_vars, returns = info.object_vars, info.returns_object
    links: dict = {}
    stack: list = []

    def link(a, b) -> None:
        links.setdefault(a, []).append(b)

    for name, own in facts.items():
        object_vars[name] = set()
        stack.extend((name, var) for var in own.seeds)
        if own.returns_object:
            stack.append(name)
        for target, source in own.copies:
            link((name, source), (name, target))
        for target, callee in own.results:
            link(callee, (name, target))
        for var in own.return_vars:
            link((name, var), name)
        for callee in own.return_calls:
            link(callee, name)
        for callee, args in own.calls:
            other = facts.get(callee)
            if other is None:
                continue
            for formal, actual in zip(other.params, args):
                if actual is OBJECT:
                    stack.append((callee, formal))
                elif actual is not None:
                    link((name, actual), (callee, formal))
                    link((callee, formal), (name, actual))
        for site, type_name, callee, position in own.sites:
            if callee is None or (
                callee in facts and position < len(facts[callee].params)
            ):
                info.site_types[site] = type_name

    while stack:
        node = stack.pop()
        if type(node) is str:
            if node in returns:
                continue
            returns.add(node)
        else:
            func, var = node
            held = object_vars[func]
            if var in held:
                continue
            held.add(var)
        stack.extend(links.get(node, ()))
    return info
