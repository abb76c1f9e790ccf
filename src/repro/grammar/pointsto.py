"""The Sridharan-Bodik points-to grammar (paper Figure 4b), re-associated.

    flowsTo ::= new (assign | store[f] alias load[f])*
    alias   ::= flowsToBar flowsTo

normalised to two-symbol rules over edge labels, bracketed so that the
``store[f] flowsToBar flowsTo`` prefix grows out of the store edges
instead of out of every ``flowsTo`` edge:

    flowsTo    ::= new                   (derivation on insert)
    flowsTo    ::= flowsTo assign
    flowsTo    ::= flowsTo heap
    storeBar[f] =  reverse(store[f])     (derivation on insert)
    fs[f]      ::= flowsTo storeBar[f]   o -> x -> y: o reaches the base of x.f = y
    fsBar[f]    =  reverse(fs[f])        (derivation on insert)
    sa[f]      ::= fsBar[f] flowsTo      y -> o -> z
    heap       ::= sa[f] load[f]         (fields must match)

The language is Fig. 4b's: ``fsBar[f] = reverse(flowsTo storeBar[f]) =
store[f] flowsToBar``, so ``sa[f] = store[f] flowsToBar flowsTo = store[f]
alias``.  Only the bracketing moved, and with it the work: a reversal
happens only where a store is, so no ``alias`` or ``flowsToBar`` edge
is ever derived for a variable no heap access asks about.
"""

from __future__ import annotations

from repro.grammar.cfg_grammar import Grammar
from repro.graph.model import canonical_label

NEW = canonical_label(("new",))
ASSIGN = canonical_label(("assign",))
FLOWS_TO = canonical_label(("flowsTo",))
HEAP = canonical_label(("heap",))


def store_bar_label(fieldname: str) -> tuple:
    """Reversed ``store[f]`` edge (base -> stored value)."""
    return canonical_label(("storeBar", fieldname))


def fs_label(fieldname: str) -> tuple:
    """``flowsTo storeBar[f]``: object -> value stored into its field."""
    return canonical_label(("fs", fieldname))


def fs_bar_label(fieldname: str) -> tuple:
    """Reversed ``fs[f]`` edge, i.e. ``store[f] flowsToBar``."""
    return canonical_label(("fsBar", fieldname))


def sa_label(fieldname: str) -> tuple:
    """Intermediate ``store[f] alias`` nonterminal, field-parameterised."""
    return canonical_label(("sa", fieldname))


class PointsToGrammar(Grammar):
    """Path-sensitive, field-sensitive points-to grammar."""

    def derived(self, label: tuple):
        if label == NEW:
            yield FLOWS_TO, False
        elif label[0] == "store":
            yield store_bar_label(label[1]), True
        elif label[0] == "fs":
            yield fs_bar_label(label[1]), True

    def compose(self, edge1, edge2, ctx):
        l1 = edge1[2]
        l2 = edge2[2]
        if l1 == FLOWS_TO:
            if l2 == ASSIGN or l2 == HEAP:
                return (FLOWS_TO,)
            if l2[0] == "storeBar":
                return (fs_label(l2[1]),)
            return ()
        if l1[0] == "fsBar":
            if l2 == FLOWS_TO:
                return (sa_label(l1[1]),)
            return ()
        if l1[0] == "sa":
            if l2[0] == "load" and l2[1] == l1[1]:
                return (HEAP,)
            return ()
        return ()

    def relevant_source(self, label: tuple) -> bool:
        return label[0] in ("flowsTo", "fsBar", "sa")

    def relevant_target(self, label: tuple) -> bool:
        return label[0] in ("assign", "heap", "storeBar", "flowsTo", "load")
