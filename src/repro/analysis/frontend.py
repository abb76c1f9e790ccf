"""Frontend driver: source text to analysable program artifacts."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.lang import ast
from repro.lang.callgraph import CallGraph, build_call_graph
from repro.lang.parser import parse_program
from repro.lang.transform import (
    EscapeSummary,
    escape_summary,
    lower_exceptions,
    may_throw_of,
    normalize_calls,
    unroll_loops,
)
from repro.lang.summary import (
    FunctionSummary,
    TypeFacts,
    summarize,
    type_facts,
    type_facts_of,
)
from repro.lang.types import ObjectInfo, infer_object_vars
from repro.cfet.icfet import BuiltCfet, Icfet, build_icfet
from repro.graph.cloning import CloneForest, body_digest, enumerate_clones
from repro.obs.trace import TraceRecorder


@dataclass
class CompiledProgram:
    """Everything the analyses need about one subject program.

    ``Grapple.run`` without a scope cache (a batch ``repro check``) lets
    what the closures do not read go as soon as its last reader is
    done: ``summaries`` after relevance, and ``program``, ``info`` and
    ``callgraph`` (None from then on) after the alias graph.  The ICFET
    and the forest stay: the dataflow phase and the report read them.
    A run handed a scope cache keeps everything.
    """

    program: ast.Program | None
    icfet: Icfet
    callgraph: CallGraph | None
    info: ObjectInfo | None
    forest: CloneForest
    loc: int
    #: Scope-graph resolution record for multi-file subjects
    #: (:class:`repro.sa.scopes.Resolution`); None for single-source runs.
    resolution: object = None
    #: Functions this compile ran a pass over: all of them, unless a
    #: scope cache handed compiled ones back (a CFET rebuilt alone counts).
    recompiled: int = 0
    #: Function -> :func:`~repro.graph.cloning.body_digest`, when a scope
    #: cache keeps them (``root_keys`` then hashes no body again).
    bodies: dict | None = None
    #: Function -> :class:`~repro.lang.summary.FunctionSummary`, in
    #: program order: what the whole-program passes read of it.
    #: ``Grapple.run`` empties it once they have, unless a scope cache
    #: keeps the summaries anyway.
    summaries: dict = dataclasses.field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class CompiledFunction:
    """One function of a :class:`~repro.sa.scopes.FileFragment`: its
    compiled form plus every cross-file fact its passes read, which is
    what decides whether a later compile may use it (DESIGN.md §16).
    Shared by every compile that does, so never mutated."""

    #: Linked, lowered and -- with reduction -- folded and DSE'd.
    fn: ast.Function
    #: Its CFET, which ``build_icfet`` takes back while it fits.
    built: BuiltCfet
    #: :func:`~repro.graph.cloning.body_digest` of ``fn`` in its file.
    body: bytes
    #: What exception lowering reads of the function itself.
    escapes: EscapeSummary
    #: Which of the function and its callees were may-throw when it
    #: was lowered.
    throwing: frozenset
    #: Its ``ObjectInfo.object_vars`` slice, which DSE read; None when
    #: reduction is off.
    object_vars: frozenset | None
    #: What the whole-program passes read of it, so they never walk its
    #: body again.
    summary: FunctionSummary
    #: Branches folded and dead stores removed in it.
    folded: int
    dead: int


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
    routed through cross-file name resolution and linking
    (:mod:`repro.sa.scopes`; ``scope_cache`` optionally keeps, in
    memory, every file's artifact and compiled functions, so a later
    compile runs the passes only over the functions whose inputs
    moved).

    With ``reduce`` on, the :mod:`repro.sa` AST reductions run between
    exception lowering and CFET construction: constant branches are
    folded away and dead pure-scalar stores removed, so the CFET (and
    therefore every generated graph edge and path constraint) is built
    from the reduced program.  ``reduction`` collects the counters and
    ``trace`` (the run's :class:`repro.obs.trace.TraceRecorder`) a span
    per pass.

    ``roots`` names the entry points whose clone trees ``forest`` holds
    (default: every root function).
    """
    trace = trace or TraceRecorder(chrome=False)
    resolution = None
    memo = None
    if isinstance(source, str):
        with trace.span("parse", cat="lang"):
            program = parse_program(source)
            loc = _loc(source)
    else:
        from repro.sa.scopes import load_modules

        with trace.span("sa-scopes", cat="sa"):
            loaded = load_modules(source, cache=scope_cache, trace=trace)
            # Keyed as load_modules keys its files.
            texts = dict(source) if isinstance(source, dict) else {
                str(path): text for path, text in source
            }
            loc = sum(_loc(text) for text in texts.values())
        program = loaded.program
        resolution = loaded.resolution
        if scope_cache is not None:
            memo = _Memo(loaded, texts, (unroll, reduce))
    # The passes run over the functions no fragment stands in for.
    work = program if memo is None else memo.misses
    # The compiled functions standing in for the rest (the memo moves a
    # function from here to ``work`` when an input it read has moved).
    reused = {} if memo is None else memo.reused
    with trace.span("transforms", cat="lang"):
        normalize_calls(work)
        unroll_loops(work, unroll)
        may_throw = None if memo is None else memo.may_throw(unroll)
        lower_exceptions(work, may_throw)
    info = None
    # The type facts of the functions in ``work``: of the body type
    # inference reads, so with reduction of the folded one, before DSE.
    types: dict[str, TypeFacts] = {}
    folded: dict[str, int] = {}
    dead: dict[str, int] = {}
    if reduce:
        from repro.sa.constprop import fold_constant_branches
        from repro.sa.liveness import eliminate_dead_stores
        from repro.sa.reduce import ReductionStats

        if reduction is None:
            reduction = ReductionStats()
        with trace.span("sa-fold", cat="sa"):
            fold_constant_branches(work, folded)
        # Dead-store elimination needs object-variable classification to
        # restrict itself to scalars; the folded program gives the same
        # (or a smaller) classification than the original.  It is also
        # the classification of the reduced program: DSE removes only
        # stores of a pure literal/var/arithmetic value to a variable
        # that is scalar at the fixpoint, and no inference rule fires on
        # such a store, so the least fixpoint cannot move.
        with trace.span("types", cat="lang"):
            types.update(
                (name, type_facts(fn)) for name, fn in work.functions.items()
            )
            info = infer_object_vars({
                name: reused[name].summary.types if name in reused
                else types[name]
                for name in program.functions
            })
            if memo is not None:
                memo.settle(info, unroll, may_throw, folded, types)
        with trace.span("sa-dse", cat="sa"):
            eliminate_dead_stores(work, info, dead)
        for name, done in reused.items():
            folded[name], dead[name] = done.folded, done.dead
        reduction.branches_folded += sum(folded.values())
        reduction.dead_stores_removed += sum(dead.values())
    with trace.span("icfet", cat="cfet"):
        icfet = build_icfet(program, None if memo is None else memo.cfets())
    # The summaries of the final bodies: what relevance, the call graph
    # and -- without reduction -- type inference read.
    with trace.span("callgraph", cat="lang"):
        summaries = {
            name: reused[name].summary if name in reused
            else summarize(fn, types.get(name))
            for name, fn in program.functions.items()
        }
        callgraph = build_call_graph(summaries)
    if info is None:
        with trace.span("types", cat="lang"):
            info = infer_object_vars(type_facts_of(summaries))
    with trace.span("cloning", cat="graph"):
        forest = enumerate_clones(
            program, icfet, callgraph, roots=roots,
            max_depth=max_clone_depth, max_clones=max_clones,
        )
    compiled = CompiledProgram(
        program=program,
        icfet=icfet,
        callgraph=callgraph,
        info=info,
        forest=forest,
        loc=loc,
        resolution=resolution,
        recompiled=len(program.functions),
        summaries=summaries,
    )
    if memo is not None:
        with trace.span("fragments", cat="sa"):
            memo.keep(scope_cache, compiled, may_throw, folded, dead)
    return compiled


def _loc(text: str) -> int:
    """Non-blank lines."""
    return sum(1 for line in text.splitlines() if line.strip())


def _throwing(name: str, escapes: EscapeSummary, may_throw: set) -> frozenset:
    """What lowering reads of ``may_throw`` for one function."""
    return frozenset(f for f in (name, *escapes.callees) if f in may_throw)


class _Memo:
    """One compile's side of the fragment memo (DESIGN.md §16).

    ``reused`` holds the compiled functions standing in the program,
    ``misses`` the program of the others, which the passes run over.  A
    reused function whose cross-file inputs moved goes back to a fresh
    parse of its file and joins ``misses`` (:meth:`may_throw`,
    :meth:`settle`); one whose CFET alone moved is rebuilt by
    ``build_icfet``.  :meth:`keep` hands the result to the cache.
    """

    def __init__(self, loaded, texts: dict, config: tuple):
        self.program = loaded.program
        self.resolution = loaded.resolution
        self.fragments = loaded.fragments
        self.texts = texts
        self.config = config
        self.reused: dict[str, CompiledFunction] = {}
        stale = []
        for fragment in self.fragments.values():
            if fragment.config == config:
                self.reused.update(fragment.functions)
            else:
                stale.extend(fragment.functions)
        self.misses = ast.Program({
            name: fn for name, fn in self.program.functions.items()
            if name not in self.reused
        })
        self.escapes: dict[str, EscapeSummary] = {}
        self._fresh(stale)

    def _fresh(self, names) -> ast.Program:
        """These reused functions from a fresh parse of their files,
        linked, replacing their compiled forms."""
        from repro.sa.scopes import reload_file

        late = ast.Program()
        for path in sorted({self.resolution.file_of[n] for n in names}):
            linked = reload_file(self.texts[path], path, self.resolution)
            late.functions.update(
                (name, linked[name]) for name in names if name in linked
            )
        for name, fn in late.functions.items():
            self.reused.pop(name, None)
            self.program.functions[name] = fn
            self.misses.functions[name] = fn
        return late

    def _summarise(self, program: ast.Program) -> None:
        self.escapes.update(
            (name, escape_summary(fn))
            for name, fn in program.functions.items()
        )

    def may_throw(self, unroll: int) -> set:
        """The whole program's may-throw set, from the escape summaries
        of the misses (normalised and unrolled by now) and the ones the
        reused functions keep; a reused function that would now be
        lowered differently is recompiled up to the same point."""
        self._summarise(self.misses)
        summaries = {n: c.escapes for n, c in self.reused.items()}
        summaries.update(self.escapes)
        may_throw = may_throw_of(summaries)
        late = self._fresh([
            name for name, compiled in self.reused.items()
            if _throwing(name, compiled.escapes, may_throw)
            != compiled.throwing
        ])
        normalize_calls(late)
        unroll_loops(late, unroll)
        self._summarise(late)
        return may_throw

    def settle(self, info: ObjectInfo, unroll: int, may_throw: set,
               folded: dict, types: dict) -> None:
        """``info`` is the cold compile's: it was inferred over every
        function's type facts, and a reused function's come from the
        folded body its compile read, which the fresh one would fold to
        again.  DSE, though, ran over a reused function under the slice
        of its own compile, so one whose slice moved is recompiled up to
        the same point (its facts included)."""
        from repro.sa.constprop import fold_constant_branches

        late = self._fresh([
            name for name, compiled in self.reused.items()
            if frozenset(info.object_vars.get(name, ()))
            != compiled.object_vars
        ])
        if not late.functions:
            return
        normalize_calls(late)
        unroll_loops(late, unroll)
        self._summarise(late)
        lower_exceptions(late, may_throw)
        fold_constant_branches(late, folded)
        types.update(
            (name, type_facts(fn)) for name, fn in late.functions.items()
        )

    def cfets(self) -> dict[str, BuiltCfet]:
        return {name: c.built for name, c in self.reused.items()}

    def keep(self, cache, compiled: CompiledProgram, may_throw, folded: dict,
             dead: dict) -> None:
        """Hand every file whose compiled functions changed to the cache,
        and fill in ``compiled.recompiled`` and ``compiled.bodies``."""
        from repro.sa.scopes import FileFragment, file_bindings, source_digest

        resolution = self.resolution
        cfets = compiled.icfet.cfets
        kept = {
            name: done if cfets[name] is done.built.cfet
            else dataclasses.replace(
                done, built=BuiltCfet.of(cfets[name], self.program))
            for name, done in self.reused.items()
        }
        changed = [name for name, done in kept.items()
                   if done is not self.reused[name]]
        for name, fn in self.misses.functions.items():
            path = resolution.file_of[name]
            kept[name] = CompiledFunction(
                fn=fn, built=BuiltCfet.of(cfets[name], self.program),
                body=body_digest(fn, path, resolution.site_ranges[path][0]),
                escapes=self.escapes[name],
                throwing=_throwing(name, self.escapes[name], may_throw),
                object_vars=frozenset(
                    compiled.info.object_vars.get(name, ())
                ) if self.config[1] else None,
                summary=compiled.summaries[name],
                folded=folded.get(name, 0), dead=dead.get(name, 0),
            )
            changed.append(name)
        compiled.recompiled = len(changed)
        compiled.bodies = {name: done.body for name, done in kept.items()}
        # The files with a function compiled here, and those no fragment
        # stood in for at all (one without functions among them).
        files: dict[str, dict] = {
            path: {} for path in resolution.site_ranges
            if path not in self.fragments
        }
        files.update((resolution.file_of[name], {}) for name in changed)
        if not files:
            return
        for name in self.program.functions:
            functions = files.get(resolution.file_of[name])
            if functions is not None:
                functions[name] = kept[name]
        modules = {a.path: a.module for a in resolution.artifacts}
        bindings = file_bindings(resolution)
        for path, functions in files.items():
            base, next_site = resolution.site_ranges[path]
            cache.keep(
                path, source_digest(self.texts[path]), base,
                FileFragment(modules[path], next_site,
                             bindings.get(path, {}), self.config, functions),
            )
