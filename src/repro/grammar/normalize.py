"""Declarative context-free grammars, normalised to two-symbol rules.

The paper (§4.2) justifies the edge-pair computation model by noting that
"any context-free grammar can be transformed into an equivalent grammar
such that the right hand side of each production rule contains only two
terms".  This module provides that transformation: analysis authors write
productions of arbitrary arity (the UDF surface), and
:func:`compile_grammar` produces a table-driven
:class:`repro.grammar.cfg_grammar.Grammar` the engine can execute.

Symbols are label tuples.  A symbol may be *field-parameterised* by using
the placeholder :data:`FIELD` as its second component -- matching rules
then require equal fields, as in ``store[f] alias load[f]``::

    rules = [
        Production(("flowsTo",), [("new",)]),
        Production(("flowsTo",), [("flowsTo",), ("assign",)]),
        Production(
            ("flowsTo",),
            [("flowsTo",), ("store", FIELD), ("alias",), ("load", FIELD)],
        ),
        Production(("alias",), [("flowsToBar",), ("flowsTo",)]),
    ]

Unary productions ``A ::= t`` become insertion-time derivations;
longer right-hand sides are binarised with fresh intermediate symbols.
Reversal derivations (bar edges) are declared with :class:`Reversal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.grammar.cfg_grammar import Grammar
from repro.graph.model import canonical_label

#: Placeholder for a field parameter inside a symbol.
FIELD = "<f>"


@dataclass(frozen=True)
class Production:
    """``lhs ::= rhs[0] rhs[1] ... rhs[n-1]`` (n >= 1)."""

    lhs: tuple
    rhs: tuple

    def __init__(self, lhs, rhs):
        object.__setattr__(self, "lhs", tuple(lhs))
        object.__setattr__(self, "rhs", tuple(tuple(s) for s in rhs))
        if not self.rhs:
            raise ValueError("empty productions are not supported")
        if _parameterised(self.lhs) and not any(
            _parameterised(s) for s in self.rhs
        ):
            raise ValueError(
                f"{self.lhs} is field-parameterised but no RHS symbol binds"
                " the field"
            )


@dataclass(frozen=True)
class Reversal:
    """Derivation: every ``source`` edge also yields a reversed ``target``
    edge (used for the flowsToBar of every flowsTo)."""

    source: tuple
    target: tuple


def _parameterised(symbol: tuple) -> bool:
    return len(symbol) > 1 and symbol[1] == FIELD


@dataclass
class _CompiledGrammar(Grammar):
    """Table-driven grammar produced by :func:`compile_grammar`."""

    unary: dict = field(default_factory=dict)  # base -> [lhs]
    binary: dict = field(default_factory=dict)  # (b1, b2) -> [(lhs, mode)]
    reversals: dict = field(default_factory=dict)  # base -> [target]
    sources: frozenset = frozenset()
    targets: frozenset = frozenset()

    def derived(self, label: tuple):
        base = (label[0],)
        for lhs in self.unary.get(base, ()):
            yield _instantiate(lhs, label), False
        for target in self.reversals.get(base, ()):
            yield _instantiate(target, label), True

    def compose(self, edge1, edge2, ctx):
        l1, l2 = edge1[2], edge2[2]
        out = []
        for lhs, mode in self.binary.get(((l1[0],), (l2[0],)), ()):
            if mode == "match" and l1[1:] != l2[1:]:
                continue
            if mode == "left":
                out.append(_instantiate(lhs, l1))
            elif mode == "right":
                out.append(_instantiate(lhs, l2))
            else:  # "match" or "none"
                out.append(_instantiate(lhs, l1 if len(l1) > 1 else l2))
        return out

    def relevant_source(self, label: tuple) -> bool:
        return (label[0],) in self.sources

    def relevant_target(self, label: tuple) -> bool:
        return (label[0],) in self.targets


def _instantiate(symbol: tuple, source: tuple) -> tuple:
    """Fill a FIELD placeholder from the source label's parameter."""
    if _parameterised(symbol):
        return canonical_label((symbol[0],) + tuple(source[1:]))
    return canonical_label(symbol)


def compile_grammar(
    productions: list[Production],
    reversals: list[Reversal] = (),
) -> _CompiledGrammar:
    """Binarise the productions and build an executable grammar.

    RHS chains longer than two symbols are folded left-to-right through
    fresh intermediate symbols (``A ::= B C D`` becomes ``A' ::= B C``,
    ``A ::= A' D``); the intermediates inherit field parameters when any
    of their constituents carry one.
    """
    grammar = _CompiledGrammar()
    fresh = 0

    def add_binary(lhs: tuple, left: tuple, right: tuple) -> None:
        if _parameterised(left) and _parameterised(right):
            mode = "match"
        elif _parameterised(left):
            mode = "left"
        elif _parameterised(right):
            mode = "right"
        else:
            mode = "none"
        if _parameterised(lhs) and mode == "none":
            raise ValueError(
                f"{lhs} needs a field but neither {left} nor {right} has one"
            )
        key = ((left[0],), (right[0],))
        grammar.binary.setdefault(key, []).append((lhs, mode))
        grammar.sources |= {(left[0],)}
        grammar.targets |= {(right[0],)}

    for production in productions:
        rhs = list(production.rhs)
        if len(rhs) == 1:
            grammar.unary.setdefault((rhs[0][0],), []).append(production.lhs)
            continue
        while len(rhs) > 2:
            fresh += 1
            carries_field = _parameterised(rhs[0]) or _parameterised(rhs[1])
            mid_name = f"__mid{fresh}_{production.lhs[0]}"
            mid = (mid_name, FIELD) if carries_field else (mid_name,)
            add_binary(mid, rhs[0], rhs[1])
            rhs = [mid] + rhs[2:]
        add_binary(production.lhs, rhs[0], rhs[1])

    for reversal in reversals:
        grammar.reversals.setdefault((reversal.source[0],), []).append(
            reversal.target
        )

    # Make sources/targets frozensets for cheap membership tests.
    grammar.sources = frozenset(grammar.sources)
    grammar.targets = frozenset(grammar.targets)
    return grammar


def points_to_productions() -> tuple[list[Production], list[Reversal]]:
    """The Sridharan-Bodik grammar (Figure 4b) in declarative form, with
    ``alias`` closed for every variable as the figure writes it.

    :class:`repro.grammar.pointsto.PointsToGrammar` brackets the same
    language differently (no ``alias`` edge at all); this text is its
    independent oracle on the ``flowsTo``, ``sa`` and ``heap`` facts.
    """
    productions = [
        Production(("flowsTo",), [("new",)]),
        Production(("flowsTo",), [("flowsTo",), ("assign",)]),
        Production(("flowsTo",), [("flowsTo",), ("heap",)]),
        Production(("heap",), [("sa", FIELD), ("load", FIELD)]),
        Production(("sa", FIELD), [("store", FIELD), ("alias",)]),
        Production(("alias",), [("flowsToBar",), ("flowsTo",)]),
    ]
    reversals = [Reversal(("flowsTo",), ("flowsToBar",))]
    return productions, reversals


def compiled_points_to() -> _CompiledGrammar:
    """Figure 4b compiled from :func:`points_to_productions`."""
    return compile_grammar(*points_to_productions())
