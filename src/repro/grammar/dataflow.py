"""The dataflow/typestate grammar (phase 2).

State facts are edges ``obj -> point`` labelled ``("st", fsm, state)``.
Composing a state fact with a control-flow edge advances the state through
the FSM for every event on the cf edge whose base variable *aliases* the
tracked object feasibly -- phase 1's flowsTo results, conjoined with the
fact's path constraint, decide that (paper §2.2: "the aliasing results
produced by the first phase are held in memory to answer alias queries").

Error states are sticky and stop propagating: the edge that first enters
an error state is the witness the checker reports.
"""

from __future__ import annotations

from repro.grammar.cfg_grammar import ComposeContext, Grammar
from repro.graph.model import canonical_label

CF = canonical_label(("cf",))


def state_label(fsm_name: str, state: str) -> tuple:
    """Label of a state fact: the object is in ``state`` of ``fsm_name``."""
    return canonical_label(("st", fsm_name, state))


class DataflowGrammar(Grammar):
    """Path-sensitive FSM-state propagation over control-flow edges."""

    def __init__(self, objects: dict, alias_index: dict, events_meta: dict):
        """
        ``objects``: dataflow obj vertex -> (FSM, alias obj vertex, tracked)
        ``alias_index``: (alias obj vertex, alias var vertex) -> encodings
        ``events_meta``: (src, dst) -> ((stmt_index, base_vertex, method), ...)
        """
        self.objects = objects
        self.alias_index = alias_index
        self.events_meta = events_meta
        self._fsm_events = {
            fsm.name: fsm.events() for fsm, _, _ in objects.values()
        }

    def compose(self, edge1, edge2, ctx: ComposeContext):
        label1, label2 = edge1[2], edge2[2]
        if label1[0] != "st" or label2 != CF:
            return ()
        entry = self.objects.get(edge1[0])
        if entry is None:
            return ()
        fsm, alias_obj, _tracked = entry
        state = label1[2]
        if fsm.is_error(state):
            return ()  # error is sticky; the error edge itself is the report
        events = self.events_meta.get((edge2[0], edge2[1]), ())
        new_state = state
        for _index, base_vertex, method in events:
            if method not in self._fsm_events[fsm.name]:
                continue
            encodings = self.alias_index.get((alias_obj, base_vertex))
            if not encodings:
                continue
            ids = (edge1[3], edge2[3])
            if any(ctx.feasible(ids, alias_enc) for alias_enc in encodings):
                new_state = fsm.step(new_state, method)
        return (state_label(fsm.name, new_state),)

    def compose_key(self, src, dst, dst2, label1_id, label2_id):
        """A step over a cf edge that carries no event keeps the state:
        its result depends on the object and the two labels only.  Any
        other step consults alias feasibility, so it is not keyed."""
        if self.events_meta.get((dst, dst2)):
            return None
        return (src, label1_id, label2_id)

    def relevant_source(self, label: tuple) -> bool:
        return label[0] == "st"

    def relevant_target(self, label: tuple) -> bool:
        return label == CF
