"""Grapple's single-machine, disk-based graph engine (paper §4.3).

The engine performs edge-pair-centric dynamic transitive closure over a
partitioned, on-disk program graph:

1. *preprocessing* partitions the input graph by source-vertex intervals,
2. each iteration loads two partitions, joins consecutive edge pairs under
   the grammar and the path-constraint satisfiability check, and flushes
   new edges to the partitions owning their source vertices,
3. oversized partitions are eagerly repartitioned so that any two
   partitions fit in the configured memory budget.

Constraint solving results are memoised per encoding id (§4.3), and all
work is accounted into the four cost components of the paper's Figure 9:
I/O, constraint encoding/decoding, SMT solving, and edge computation.
"""

from repro.engine.computation import GraphEngine, EngineOptions, EngineResult
from repro.engine.cache import LRUCache
from repro.engine.stats import EngineStats

__all__ = [
    "GraphEngine",
    "EngineOptions",
    "EngineResult",
    "LRUCache",
    "EngineStats",
]
