"""Grammar interface consumed by the graph engine.

The engine checks each pair of consecutive edges (paper §4.2): labels must
compose under the grammar *and* the conjunction of the edges' path
constraints must be satisfiable.  The grammar sees raw label tuples; the
engine handles interning, encodings and constraint checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass
class ComposeContext:
    """Facilities the engine exposes to grammar UDFs during composition.

    ``feasible(ids, encoding)`` checks the conjunction of the constraints
    of the encoding ids ``ids`` (an edge's encoding, as :meth:`Grammar.
    compose` is handed it) and of one more path encoding from outside
    the closure (memoised); ``vertex(v)`` resolves a vertex id back to
    its key tuple.
    """

    feasible: Callable[[tuple, tuple], bool]
    vertex: Callable[[int], tuple]


class Grammar:
    """Base grammar: binary rules, derivation hooks, and the key the
    engine memoises a composition on."""

    def derived(self, label: tuple) -> Iterable[tuple[tuple, bool]]:
        """Labels derived from a newly inserted edge.

        Yields ``(new_label, reverse)`` pairs; ``reverse`` means the derived
        edge runs dst -> src with the reversed encoding.
        """
        return ()

    def compose(self, edge1, edge2, ctx: ComposeContext):
        """Transitive labels for consecutive edges ``edge1 . edge2``.

        Each edge is ``(src, dst, label, encoding id)`` with the label as
        a raw tuple; the id means something only to ``ctx.feasible``.
        Returns an iterable of label tuples.
        """
        raise NotImplementedError

    def compose_key(self, src: int, dst: int, dst2: int, label1_id: int,
                    label2_id: int):
        """What :meth:`compose` of ``src -> dst -> dst2`` depends on, as a
        hashable key, or None when it reads the encodings.  The engine
        memoises a keyed step's result on the key (one memo per engine:
        a grammar's keys must not collide with each other).  Labels
        arrive as the engine's interned ids.  The default says the
        labels decide, as in a table-driven grammar.
        """
        return (label1_id, label2_id)

    def relevant_source(self, label: tuple) -> bool:
        """Whether edges with this label can be the *left* edge of a pair.

        Lets the engine skip pairs that can never compose (a big constant-
        factor saving).
        """
        return True

    def relevant_target(self, label: tuple) -> bool:
        """Whether edges with this label can be the *right* edge of a pair."""
        return True
