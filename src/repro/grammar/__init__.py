"""Grammar layer: the user-defined-function surface of the system.

A :class:`repro.grammar.cfg_grammar.Grammar` tells the engine which label
pairs compose into which transitive labels (the paper's context-free
grammar, normalised to two-symbol right-hand sides) and which labels spawn
derived edges on insertion (e.g. the reversed ``storeBar[f]`` of every
``store[f]``).  Two instances exist: the Sridharan-Bodik points-to grammar
and the dataflow/typestate grammar.
"""

from repro.grammar.cfg_grammar import Grammar, ComposeContext
from repro.grammar.pointsto import PointsToGrammar, FLOWS_TO
from repro.grammar.dataflow import DataflowGrammar, state_label, CF
from repro.grammar.normalize import (
    FIELD,
    Production,
    Reversal,
    compile_grammar,
    compiled_points_to,
)

__all__ = [
    "Grammar",
    "ComposeContext",
    "PointsToGrammar",
    "FLOWS_TO",
    "DataflowGrammar",
    "state_label",
    "CF",
    "FIELD",
    "Production",
    "Reversal",
    "compile_grammar",
    "compiled_points_to",
]
