"""Clone enumeration for context sensitivity (paper §2.1, §4.1).

The program graph is a *fully inlined* representation: the graph of each
callee is cloned at every invoking call site, bottom-up over the call
graph.  A clone is identified by its context ``ctx`` -- the tuple of
call-record cids from a root function down to the clone.  Calls that stay
inside one SCC of the call graph (recursion) do not extend the context:
the members share one clone per enclosing context and are therefore
treated context-insensitively, exactly as the paper prescribes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.lang import ast
from repro.lang.callgraph import CallGraph
from repro.cfet.icfet import Icfet


class CloneExplosionError(Exception):
    """Raised when cloning exceeds the configured bounds."""


@dataclass
class Clone:
    """One inlined instance of a function."""

    ctx: tuple
    func: str
    #: The root function whose clone tree this instance belongs to.
    root: str
    # (call record, callee clone key or None when the callee is extern)
    calls: list = field(default_factory=list)

    @property
    def key(self) -> tuple:
        """``(ctx, func)`` -- the clone's identity."""
        return (self.ctx, self.func)

    @property
    def depth(self) -> int:
        """Call depth of the clone (length of the cid context)."""
        return len(self.ctx)


@dataclass
class CloneForest:
    """All clones plus the root clone keys."""

    clones: dict = field(default_factory=dict)  # key -> Clone
    roots: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.clones)

    def clone(self, key) -> Clone:
        """The clone registered under ``(ctx, func)``."""
        return self.clones[key]


def root_functions(program: ast.Program, callgraph: CallGraph) -> list[str]:
    """Entry points: ``main`` plus any function nobody calls.

    Linking qualifies a module's ``main`` as ``<module>.main``; it is as
    much an entry point as a bare one, also when it sits on a call cycle.
    """
    called: set[str] = set()
    for callees in callgraph.edges.values():
        called |= callees
    return sorted(
        name for name in program.functions
        if name not in called or name.rsplit(".", 1)[-1] == "main"
    )


#: Hex digits kept of a root key's sha256.  A key is only ever compared
#: with the same root's previous key, and the daemon persists one per
#: root per edit: 128 bits is ample and halves the state they add.
KEY_HEX = 32


def tree_order(roots) -> list[str]:
    """Roots in the order :func:`enumerate_clones` builds their trees --
    it pops ``sorted(roots)`` off a stack -- which is the order of their
    vertex ids and therefore of their warnings in a whole run."""
    return sorted(roots, reverse=True)


def root_keys(
    program: ast.Program,
    callgraph: CallGraph,
    roots: list[str],
    config: str,
    info,
    relevance,
    origin,
    bodies=None,
    memo=None,
) -> dict[str, str]:
    """One reuse key per root clone tree.

    Full cloning makes the program graph a forest: the clones of one
    root share no vertex with another root's, so a root's warnings are
    a function of the functions its tree instantiates.  The key is a
    digest over ``config`` and, for every function reachable from the
    root in the call graph, everything the graph builders read about it:
    the linked, transformed, reduced AST (source lines included; site
    ids relative to the function's file, ``origin(func) -> (path, first
    site id)``, so a neighbour file growing does not move them) and the
    function's slices of ``info`` (:class:`~repro.lang.types.ObjectInfo`)
    and ``relevance`` (:class:`~repro.sa.relevance.RelevanceInfo`, None
    when reduction is off).  Those two are whole-program fixpoints -- a caller in another tree can
    change them -- which is why they are in the key rather than assumed.
    ``bodies`` maps functions to their :func:`body_digest` computed
    earlier (the serve memo keeps them); the others are computed here.
    ``memo`` (an :class:`~repro.engine.cache.LRUCache` the serve daemon
    keeps) maps a function to the facts and digest it had last time:
    while its body digest and both slices are the same, the digest is
    reused rather than hashed again.
    """
    relevant: dict[str, list] = {}
    if relevance is not None:
        for func, var in relevance.relevant_vars:
            relevant.setdefault(func, []).append(var)
    bodies = bodies or {}

    def digest(func: str) -> bytes:
        body = bodies.get(func)
        if body is None:
            body = body_digest(program.functions[func], *origin(func))
        facts = (
            body,
            sorted(info.object_vars.get(func, ())),
            sorted(relevant.get(func, ())),
            relevance is None or relevance.func_flow_relevant(func),
        )
        known = None if memo is None else memo.get(func)
        if known is not None and known[0] == facts:
            return known[1]
        value = hashlib.sha256(repr(facts).encode()).digest()
        if memo is not None:
            memo.put(func, (facts, value))
        return value

    digests: dict[str, bytes] = {}
    keys: dict[str, str] = {}
    for root in roots:
        reached = {root}
        stack = [root]
        while stack:
            for callee in callgraph.callees(stack.pop()):
                if callee not in reached:
                    reached.add(callee)
                    stack.append(callee)
        key = hashlib.sha256(config.encode())
        for func in sorted(reached):
            if func not in digests:
                digests[func] = digest(func)
            key.update(func.encode() + b"\0" + digests[func])
        keys[root] = key.hexdigest()[:KEY_HEX]
    return keys


def body_digest(fn: ast.Function, path: str, base: int) -> bytes:
    """The sha256 of what :func:`root_keys` reads of a function alone:
    its file, parameters and body, site ids rebased to ``base``."""
    facts = (path, fn.params, _canonical(fn.body, base))
    return hashlib.sha256(repr(facts).encode()).digest()


_SITE_FIELDS = ("site", "call_site")
_LEAF_TYPES = {str, int, bool, type(None)}


def _canonical(node, base: int):
    """An AST subtree as nested lists, site ids rebased to ``base``."""
    cls = type(node)
    if cls in _LEAF_TYPES:
        return node
    if cls is list or cls is tuple:
        return [_canonical(item, base) for item in node]
    return [cls.__name__] + [
        getattr(node, name) - base if name in _SITE_FIELDS
        else _canonical(getattr(node, name), base)
        for name in cls.__slots__  # every AST node is a slotted dataclass
    ]


def enumerate_clones(
    program: ast.Program,
    icfet: Icfet,
    callgraph: CallGraph,
    roots: list[str] | None = None,
    max_depth: int = 24,
    max_clones: int = 500_000,
) -> CloneForest:
    """Build the clone forest rooted at the program's entry points."""
    forest = CloneForest()
    if roots is None:
        roots = root_functions(program, callgraph)

    stack: list[tuple[tuple, str, str]] = [((), name, name) for name in roots]
    forest.roots = [((), name) for name in roots]
    while stack:
        ctx, func, root = stack.pop()
        key = (ctx, func)
        if key in forest.clones:
            continue
        if len(forest.clones) >= max_clones:
            raise CloneExplosionError(
                f"more than {max_clones} clones; the subject program's call"
                " tree is too deep/wide for the configured bounds"
            )
        clone = Clone(ctx, func, root)
        forest.clones[key] = clone
        cfet = icfet.cfets.get(func)
        if cfet is None:
            continue
        for node in cfet.nodes.values():
            for record in node.calls:
                if record.callee not in program.functions:
                    clone.calls.append((record, None))
                    continue
                if callgraph.is_recursive_edge(func, record.callee):
                    child_ctx = ctx  # stay in the collapsed SCC clone
                elif len(ctx) >= max_depth:
                    clone.calls.append((record, None))
                    continue
                else:
                    child_ctx = ctx + (record.cid,)
                child_key = (child_ctx, record.callee)
                clone.calls.append((record, child_key))
                if child_key not in forest.clones:
                    stack.append((*child_key, root))
    return forest
