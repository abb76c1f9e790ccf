"""The Sridharan-Bodik points-to grammar (paper Figure 4b), normalised.

    flowsTo ::= new (assign | store[f] alias load[f])*
    alias   ::= flowsToBar flowsTo

normalised to two-symbol rules over edge labels:

    flowsTo ::= new                      (derivation on insert)
    flowsTo ::= flowsTo assign
    sa[f]   ::= store[f] alias
    heap    ::= sa[f] load[f]            (fields must match)
    flowsTo ::= flowsTo heap
    alias   ::= flowsToBar flowsTo

``flowsToBar`` is maintained by a derivation rule: every ``flowsTo`` edge
o -> v derives the reversed edge v -> o.
"""

from __future__ import annotations

from repro.grammar.cfg_grammar import Grammar
from repro.graph.model import canonical_label

NEW = canonical_label(("new",))
ASSIGN = canonical_label(("assign",))
FLOWS_TO = canonical_label(("flowsTo",))
FLOWS_TO_BAR = canonical_label(("flowsToBar",))
ALIAS = canonical_label(("alias",))
HEAP = canonical_label(("heap",))


def sa_label(fieldname: str) -> tuple:
    """Intermediate ``store[f] alias`` nonterminal, field-parameterised."""
    return canonical_label(("sa", fieldname))


class PointsToGrammar(Grammar):
    """Path-sensitive, field-sensitive points-to/alias grammar."""

    output_labels = frozenset({FLOWS_TO, ALIAS})
    #: compose() depends only on the labels, so the engine may memoise it.
    table_driven = True

    def derived(self, label: tuple):
        if label == NEW:
            yield FLOWS_TO, False
        elif label == FLOWS_TO:
            yield FLOWS_TO_BAR, True

    def compose(self, edge1, edge2, ctx):
        l1 = edge1[2]
        l2 = edge2[2]
        if l1 == FLOWS_TO:
            if l2 == ASSIGN or l2 == HEAP:
                return (FLOWS_TO,)
            return ()
        if l1 == FLOWS_TO_BAR:
            if l2 == FLOWS_TO:
                return (ALIAS,)
            return ()
        if l1[0] == "store":
            if l2 == ALIAS:
                return (sa_label(l1[1]),)
            return ()
        if l1[0] == "sa":
            if l2[0] == "load" and l2[1] == l1[1]:
                return (HEAP,)
            return ()
        return ()

    def relevant_source(self, label: tuple) -> bool:
        return label[0] in ("flowsTo", "flowsToBar", "store", "sa")

    def relevant_target(self, label: tuple) -> bool:
        return label[0] in ("assign", "heap", "flowsTo", "alias", "load")
