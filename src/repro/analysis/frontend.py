"""Frontend driver: source text to analysable program artifacts."""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.lang import ast
from repro.lang.callgraph import CallGraph, build_call_graph
from repro.lang.parser import parse_program
from repro.lang.transform import (
    lower_exceptions,
    normalize_calls,
    unroll_loops,
)
from repro.lang.types import ObjectInfo, infer_object_vars
from repro.cfet.icfet import Icfet, build_icfet
from repro.graph.cloning import CloneForest, enumerate_clones


@dataclass
class CompiledProgram:
    """Everything the analyses need about one subject program."""

    program: ast.Program
    icfet: Icfet
    callgraph: CallGraph
    info: ObjectInfo
    forest: CloneForest
    loc: int
    frontend_time: float
    #: Scope-graph resolution record for multi-file subjects
    #: (:class:`repro.sa.scopes.Resolution`); None for single-source runs.
    resolution: object = None


def compile_source(
    source,
    unroll: int = 2,
    max_clone_depth: int = 24,
    max_clones: int = 500_000,
    reduce: bool = False,
    reduction=None,
    trace=None,
    scope_cache=None,
    roots=None,
) -> CompiledProgram:
    """Parse, lower, and index a subject program.

    ``source`` is either a single source string (legacy single-file
    path: no scope resolution, byte-identical behaviour) or a multi-file
    mapping ``{path: text}`` / list of ``(path, text)`` pairs, which is
    routed through scope-graph name resolution and linking
    (:mod:`repro.sa.scopes`; ``scope_cache`` optionally persists the
    per-file artifacts).

    With ``reduce`` on, the :mod:`repro.sa` AST reductions run between
    exception lowering and CFET construction: constant branches are
    folded away and dead pure-scalar stores removed, so the CFET (and
    therefore every generated graph edge and path constraint) is built
    from the reduced program.  ``reduction`` collects the counters and
    ``trace`` (a :class:`repro.obs.trace.TraceRecorder`) the pass spans.

    ``roots`` names the entry points whose clone trees ``forest`` holds
    (default: every root function).
    """
    start = time.perf_counter()
    resolution = None
    if isinstance(source, str):
        program = parse_program(source)
        source_text = source
    else:
        from repro.sa.scopes import load_modules

        tick = trace.begin() if trace is not None else 0.0
        loaded = load_modules(source, cache=scope_cache)
        if trace is not None:
            trace.end("sa-scopes", tick, cat="sa")
        program = loaded.program
        resolution = loaded.resolution
        texts = source.values() if isinstance(source, dict) else (
            text for _, text in source
        )
        source_text = "\n".join(texts)
    normalize_calls(program)
    unroll_loops(program, unroll)
    lower_exceptions(program)
    info = None
    if reduce:
        from repro.sa.constprop import fold_constant_branches
        from repro.sa.liveness import eliminate_dead_stores
        from repro.sa.reduce import ReductionStats

        if reduction is None:
            reduction = ReductionStats()
        tick = trace.begin() if trace is not None else 0.0
        reduction.branches_folded += fold_constant_branches(program)
        if trace is not None:
            trace.end("sa-fold", tick, cat="sa")
            tick = trace.begin()
        # Dead-store elimination needs object-variable classification to
        # restrict itself to scalars; the folded program gives the same
        # (or a smaller) classification than the original.  It is also
        # the classification of the reduced program: DSE removes only
        # stores of a pure literal/var/arithmetic value to a variable
        # that is scalar at the fixpoint, and no inference rule fires on
        # such a store, so the least fixpoint cannot move.
        info = infer_object_vars(program)
        reduction.dead_stores_removed += eliminate_dead_stores(program, info)
        if trace is not None:
            trace.end("sa-dse", tick, cat="sa")
    icfet = build_icfet(program)
    callgraph = build_call_graph(program)
    if info is None:
        info = infer_object_vars(program)
    forest = enumerate_clones(
        program, icfet, callgraph, roots=roots,
        max_depth=max_clone_depth, max_clones=max_clones,
    )
    loc = sum(1 for line in source_text.splitlines() if line.strip())
    return CompiledProgram(
        program=program,
        icfet=icfet,
        callgraph=callgraph,
        info=info,
        forest=forest,
        loc=loc,
        frontend_time=time.perf_counter() - start,
        resolution=resolution,
    )
