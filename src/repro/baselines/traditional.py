"""Traditional in-memory path-sensitive alias analysis (paper §5.3).

"We represented the actual constraints using objects and saved them with
edges via pointers.  A worklist-based algorithm was employed to
iteratively check existing edges and add new edges.  This implementation
could not successfully analyze any program in our set -- it ran out of
memory quickly after several iterations."

This module reproduces that design: a worklist closure over the same alias
program graph, but entirely in memory, with every edge carrying a full
constraint expression object.  Memory use is metered (edges plus
expression-tree nodes) against a configurable budget; exceeding it raises
:class:`OutOfMemoryError` -- the simulated OOM, standing in for the
paper's 16 GB desktop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.frontend import CompiledProgram
from repro.cfet import encoding as enc_mod
from repro.checkers.fsm import fsms_by_type
from repro.grammar.cfg_grammar import ComposeContext
from repro.grammar.pointsto import PointsToGrammar
from repro.graph.alias_graph import build_alias_graph
from repro.smt import Result, Solver
from repro.smt import expr as E

# Rough per-object sizes (CPython, 64-bit): an edge record and one
# expression tree node.
EDGE_BYTES = 120
EXPR_NODE_BYTES = 88


class OutOfMemoryError(MemoryError):
    """The traditional implementation exceeded its memory budget."""

    def __init__(self, stats: "TraditionalStats"):
        super().__init__(
            f"out of memory after {stats.iterations} iterations"
            f" ({stats.estimated_bytes // (1 << 20)} MiB estimated,"
            f" {stats.edges} edges)"
        )
        self.stats = stats


@dataclass
class TraditionalStats:
    edges: int = 0
    facts: int = 0
    iterations: int = 0
    constraints_solved: int = 0
    estimated_bytes: int = 0
    elapsed: float = 0.0
    completed: bool = False
    _start: float = 0.0


def run_traditional_alias(
    compiled: CompiledProgram,
    tracked_types: set[str] | None = None,
    memory_budget: int = 64 << 20,
) -> TraditionalStats:
    """Run the alias worklist; raises :class:`OutOfMemoryError` when the
    budget is exceeded (the expected outcome on real subjects)."""
    stats, _graph_result, _adjacency = _alias_closure(
        compiled, tracked_types, memory_budget, time.perf_counter(),
        TraditionalStats(),
    )
    stats.elapsed = time.perf_counter() - stats._start
    stats.completed = True
    return stats


def _alias_closure(
    compiled: CompiledProgram,
    tracked_types,
    memory_budget: int,
    start: float,
    stats: TraditionalStats,
):
    stats._start = start
    graph_result = build_alias_graph(
        compiled.program,
        compiled.icfet,
        compiled.callgraph,
        compiled.info,
        compiled.forest,
        tracked_types,
    )
    graph = graph_result.graph
    grammar = PointsToGrammar()
    solver = Solver()
    ctx = ComposeContext(
        feasible=lambda ids, encoding: True, vertex=graph.vertices.lookup
    )

    # Materialise all edges with explicit constraint objects.
    adjacency: dict[int, dict] = {}  # src -> {(dst, label) -> [constraints]}
    radjacency: dict[int, dict] = {}  # dst -> {(src, label) -> [constraints]}
    expr_sizes: dict[int, int] = {}

    def expr_size(expr: E.Expr) -> int:
        cached = expr_sizes.get(id(expr))
        if cached is None:
            cached = 1 + sum(
                expr_size(a) for a in expr.args if isinstance(a, E.Expr)
            )
            expr_sizes[id(expr)] = cached
        return cached

    def charge(constraint: E.Expr) -> None:
        stats.edges += 1
        stats.estimated_bytes += EDGE_BYTES + EXPR_NODE_BYTES * expr_size(
            constraint
        )
        if stats.estimated_bytes > memory_budget:
            stats.elapsed = time.perf_counter() - stats._start
            raise OutOfMemoryError(stats)

    def add_edge(src: int, dst: int, label: tuple, constraint: E.Expr) -> bool:
        slot = adjacency.setdefault(src, {}).setdefault((dst, label), [])
        if any(existing == constraint for existing in slot):
            return False
        slot.append(constraint)
        radjacency.setdefault(dst, {}).setdefault((src, label), []).append(
            constraint
        )
        charge(constraint)
        return True

    worklist: list = []
    labels = graph.labels
    for src, dst, label_id, encoding in graph.iter_edges():
        label = labels.lookup(label_id)
        constraint = enc_mod.decode_constraint(encoding, compiled.icfet)
        if add_edge(src, dst, label, constraint):
            worklist.append((src, dst, label, constraint))
        for derived_label, rev in grammar.derived(label):
            edge = (dst, src) if rev else (src, dst)
            if add_edge(edge[0], edge[1], derived_label, constraint):
                worklist.append((edge[0], edge[1], derived_label, constraint))

    def emit(src: int, dst: int, label: tuple, constraint: E.Expr) -> None:
        if add_edge(src, dst, label, constraint):
            worklist.append((src, dst, label, constraint))
        for derived_label, rev in grammar.derived(label):
            edge = (dst, src) if rev else (src, dst)
            if add_edge(edge[0], edge[1], derived_label, constraint):
                worklist.append((edge[0], edge[1], derived_label, constraint))

    def try_compose(left, right) -> None:
        src, dst, label, constraint = left
        dst_mid, dst2, label2, constraint2 = right
        new_labels = grammar.compose(
            (src, dst, label, None), (dst_mid, dst2, label2, None), ctx
        )
        if not new_labels:
            return
        combined = E.and_(constraint, constraint2)
        stats.constraints_solved += 1
        if solver.check(combined) is not Result.SAT:
            return
        for new_label in new_labels:
            emit(src, dst2, new_label, combined)

    while worklist:
        stats.iterations += 1
        src, dst, label, constraint = worklist.pop()
        edge = (src, dst, label, constraint)
        # As the left edge of a pair ...
        for (dst2, label2), constraints2 in list(adjacency.get(dst, {}).items()):
            for constraint2 in list(constraints2):
                try_compose(edge, (dst, dst2, label2, constraint2))
        # ... and as the right edge of a pair.
        for (src0, label0), constraints0 in list(radjacency.get(src, {}).items()):
            for constraint0 in list(constraints0):
                try_compose((src0, src, label0, constraint0), edge)

    return stats, graph_result, adjacency


def run_traditional_check(
    compiled: CompiledProgram,
    fsms: list,
    memory_budget: int = 64 << 20,
) -> TraditionalStats:
    """The full traditional finite-state property checker: alias closure
    followed by in-memory dataflow fact propagation, every edge and fact
    carrying a full constraint object.

    Fact constraints are whole-path conjunctions (no interval compaction),
    so memory grows with path length times fact count; on realistic
    subjects this exceeds any proportionate budget -- the paper's
    "crashed with out-of-memory errors in all cases".
    """
    from repro.graph.dataflow_graph import build_dataflow_graph
    from repro.grammar.pointsto import FLOWS_TO

    start = time.perf_counter()
    stats = TraditionalStats()
    by_type = fsms_by_type(fsms)
    stats, graph_result, adjacency = _alias_closure(
        compiled, set(by_type), memory_budget, start, stats
    )

    tracked_vertices = {t.vertex for t in graph_result.tracked}
    flows_to: dict = {}
    for src, targets in adjacency.items():
        if src not in tracked_vertices:
            continue
        for (dst, label), constraints in targets.items():
            if label == FLOWS_TO:
                flows_to.setdefault((src, dst), []).extend(constraints)

    df = build_dataflow_graph(compiled.icfet, graph_result, by_type)
    solver = Solver()
    expr_sizes: dict[int, int] = {}

    def expr_size(expr: E.Expr) -> int:
        cached = expr_sizes.get(id(expr))
        if cached is None:
            cached = 1 + sum(
                expr_size(a) for a in expr.args if isinstance(a, E.Expr)
            )
            expr_sizes[id(expr)] = cached
        return cached

    def charge(constraint: E.Expr) -> None:
        stats.facts += 1
        stats.estimated_bytes += EDGE_BYTES + EXPR_NODE_BYTES * expr_size(
            constraint
        )
        if stats.estimated_bytes > memory_budget:
            stats.elapsed = time.perf_counter() - start
            raise OutOfMemoryError(stats)

    # Control-flow adjacency with decoded constraints per edge.
    cf_out: dict = {}
    label_cf = df.graph.labels.get(("cf",))
    for src, dst, label_id, encoding in df.graph.iter_edges():
        if label_id != label_cf:
            continue
        constraint = enc_mod.decode_constraint(encoding, compiled.icfet)
        events = df.events_meta.get((src, dst), ())
        cf_out.setdefault(src, []).append((dst, constraint, events))

    facts: dict = {}  # (obj, pt, state) -> list of constraints
    worklist: list = []

    def add_fact(obj, pt, state, constraint) -> None:
        slot = facts.setdefault((obj, pt, state), [])
        if any(existing == constraint for existing in slot):
            return
        slot.append(constraint)
        charge(constraint)
        worklist.append((obj, pt, state, constraint))

    for src, dst, label_id, encoding in df.graph.iter_edges():
        label = df.graph.labels.lookup(label_id)
        if label[0] != "st":
            continue
        constraint = enc_mod.decode_constraint(encoding, compiled.icfet)
        add_fact(src, dst, label[2], constraint)

    while worklist:
        stats.iterations += 1
        obj, pt, state, constraint = worklist.pop()
        entry = df.objects.get(obj)
        if entry is None:
            continue
        fsm, alias_obj, _tracked = entry
        if fsm.is_error(state):
            continue
        for dst, cf_constraint, events in cf_out.get(pt, ()):
            combined = E.and_(constraint, cf_constraint)
            stats.constraints_solved += 1
            if solver.check(combined) is not Result.SAT:
                continue
            new_state = state
            for _index, base_vertex, method in events:
                if method not in fsm.events():
                    continue
                for alias_c in flows_to.get((alias_obj, base_vertex), ()):
                    stats.constraints_solved += 1
                    if solver.check(E.and_(combined, alias_c)) is Result.SAT:
                        new_state = fsm.step(new_state, method)
                        break
            add_fact(obj, dst, new_state, combined)

    stats.elapsed = time.perf_counter() - start
    stats.completed = True
    return stats
