"""Scope-graph name resolution for multi-file programs (DESIGN.md §15).

Stack-graph style (van Antwerpen et al., PAPERS.md): each file compiles
*independently* to a small scope graph whose nodes carry push/pop symbol
discipline, and cross-file name binding is a path search over the union
of the per-file graphs plus one program root.  Nothing about a file's
graph depends on any other file, so the analysis daemon keeps each
file's artifact in memory under its path and content digest and
re-resolves a program after an edit without re-deriving the others.

Node kinds
----------

* ``scope`` -- a lexical region: the program root, one exports scope and
  one lookup scope per file.  Traversal passes through unchanged.
* ``push`` -- pushes its symbol onto the resolution stack (references
  and import re-routing).
* ``pop`` -- pops its symbol; traversal continues only when the symbol
  matches the top of the stack.  A ``pop`` node carrying a definition
  payload *resolves* the reference when the stack empties there.
* ``ref`` -- the root of one reference's search.

Wiring per file (module ``m``, path ``p``):

* every top-level ``func f`` becomes a ``pop f`` definition node hanging
  off the file's *exports* scope;
* the exports scope hangs off the program root behind ``pop m`` (so a
  qualified reference must first pop the module name), or directly for
  the root namespace (files without a ``module`` header);
* a bare reference ``g(...)`` pushes ``g`` and searches the file's
  *lookup* scope: local exports first, then each ``import a.g;`` which
  re-routes through ``pop g -> push a -> push g -> program root``;
* a qualified reference ``a.f(...)`` pushes ``f`` then ``a`` and
  searches the program root directly (gated on ``import a;`` -- the
  parser only produces qualified calls for imported aliases).

Resolution rules
----------------

Deterministic by construction: candidate definitions are collected by a
breadth-first search with sorted tie-breaks, so the outcome never
depends on dict order or file discovery order.

* 0 candidates: the reference is *extern* (single-file semantics keep
  unknown bare callees as opaque extern calls; only *qualified*
  references and import declarations earn an ``unresolved-name``
  diagnostic, because those name a module explicitly).
* 1 candidate: resolved; the linker rewrites the call to the symbol id.
* >1 candidates: an ``ambiguous-import`` diagnostic; the local
  definition wins when present, else the lexicographically smallest
  symbol id, so the pipeline still proceeds deterministically.

Symbol ids are ``m.f`` for module ``m`` ("" for the root namespace,
whose symbols stay unqualified -- single-file programs link to a
byte-identical :class:`~repro.lang.ast.Program`).
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field, fields

from repro.checkers.report import Diagnostic
from repro.engine.cache import LRUCache
from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.parser import ParseError, parse_module, scan_module_name

KIND_UNRESOLVED = "unresolved-name"
KIND_AMBIGUOUS_IMPORT = "ambiguous-import"

SCOPE, PUSH, POP, REF = "scope", "push", "pop", "ref"

#: The shared program-root node every file graph composes against.
PROGRAM_ROOT = ("<program>", "root")


def symbol_id(module: str, name: str) -> str:
    """Global symbol id: ``m.f`` for module ``m``, bare for the root."""
    return f"{module}.{name}" if module else name


def source_digest(text: str) -> str:
    """Content digest keying a file's scope artifact."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- per-file artifact ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DefRecord:
    name: str
    line: int
    params: int


@dataclass(frozen=True, slots=True)
class ImportRecord:
    module: str
    symbol: str | None  # None = whole-module import
    line: int


@dataclass(frozen=True, slots=True)
class RefRecord:
    """One distinct callee name referenced by a file.

    ``name`` is ``g`` (bare) or ``a.f`` (qualified); ``func`` and
    ``line`` locate the first occurrence for diagnostics.
    """

    name: str
    func: str
    line: int


@dataclass
class FileArtifact:
    """What resolution reads of one file: its module, definitions,
    imports and references."""

    digest: str
    path: str
    module: str
    defs: list[DefRecord] = field(default_factory=list)
    imports: list[ImportRecord] = field(default_factory=list)
    refs: list[RefRecord] = field(default_factory=list)


def _collect_calls(expr, out: list) -> None:
    if isinstance(expr, ast.Call):
        out.append(expr)
        for arg in expr.args:
            _collect_calls(arg, out)
    elif isinstance(expr, ast.Binary):
        _collect_calls(expr.left, out)
        _collect_calls(expr.right, out)
    elif isinstance(expr, ast.Unary):
        _collect_calls(expr.operand, out)


def file_references(mf: ast.ModuleFile) -> list[RefRecord]:
    """Every distinct callee name in a file, first occurrence wins."""
    first: dict[str, RefRecord] = {}
    for fname, fn in mf.functions.items():
        for stmt in ast.walk_statements(fn.body):
            calls: list = []
            for expr in ast.walk_expressions(stmt):
                _collect_calls(expr, calls)
            if isinstance(stmt, ast.Event):
                for arg in stmt.args:
                    _collect_calls(arg, calls)
            line = getattr(stmt, "line", 0)
            for call in calls:
                if call.func not in first:
                    first[call.func] = RefRecord(call.func, fname, line)
    return sorted(first.values(), key=lambda r: (r.name, r.func, r.line))


def build_artifact(mf: ast.ModuleFile, digest: str) -> FileArtifact:
    """Compile one parsed file to its scope artifact."""
    return FileArtifact(
        digest=digest,
        path=mf.path,
        module=mf.module,
        defs=sorted(
            (DefRecord(fn.name, fn.line, len(fn.params))
             for fn in mf.functions.values()),
            key=lambda d: (d.name, d.line),
        ),
        imports=list(mf.imports and [
            ImportRecord(i.module, i.symbol, i.line) for i in mf.imports
        ] or []),
        refs=file_references(mf),
    )


#: Default bound on the files the cache holds.  A path holds one
#: content at a time; 1024 paths comfortably cover a large workspace.
ARTIFACT_CACHE_CAPACITY = 1024


@dataclass(frozen=True)
class FileFragment:
    """One file's compiled functions, as :class:`ScopeArtifactCache`
    keeps them under ``(path, digest, site_base)`` (DESIGN.md §16).

    Live objects shared by every run that reuses them: nothing may
    mutate a fragment or anything it holds.
    """

    module: str
    next_site: int
    #: Raw callee name -> the symbol this file's calls were linked to.
    bindings: dict
    #: ``(unroll, reduce)`` the functions were compiled under.
    config: tuple
    #: Global symbol -> :class:`~repro.analysis.frontend.CompiledFunction`,
    #: in file order.
    functions: dict


class ScopeArtifactCache:
    """The analysis daemon's per-file memo, in memory, keyed by path.

    A path's entry is the content digest last seen there, that
    content's :class:`FileArtifact` and its compiled functions
    (:class:`FileFragment`) by site base.  A new digest at a path
    replaces the path's entry, and beyond ``capacity`` the least
    recently used path goes.  A file met again at the same path and
    content is not re-derived, and at the same site base too it is
    neither tokenised nor parsed.
    """

    def __init__(self, capacity: int = ARTIFACT_CACHE_CAPACITY):
        self.hits = 0
        self.misses = 0
        #: path -> (digest, FileArtifact, {site_base: FileFragment}).
        self._entries = LRUCache(capacity)

    @property
    def evictions(self) -> int:
        return self._entries.evictions

    def __len__(self) -> int:
        return len(self._entries)

    def _entry(self, path: str, digest: str) -> tuple | None:
        entry = self._entries.get(path)
        return entry if entry is not None and entry[0] == digest else None

    def get(self, path: str, digest: str) -> FileArtifact | None:
        """The artifact of this content at this path, or None (a miss)."""
        entry = self._entry(path, digest)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry[1]

    def put(self, artifact: FileArtifact) -> None:
        """Make ``artifact`` its path's entry, with no fragment yet."""
        self._entries.put(artifact.path, (artifact.digest, artifact, {}))

    def module_name(self, path: str, digest: str) -> str | None:
        """The module this content at this path declares, if it was
        seen before; None sends the caller to the lexer."""
        entry = self._entry(path, digest)
        return None if entry is None else entry[1].module

    def fragment(self, path: str, digest: str,
                 site_base: int) -> FileFragment | None:
        """The file's compiled functions, if this content was compiled
        at this path and site base -- everything the parser reads."""
        entry = self._entry(path, digest)
        return None if entry is None else entry[2].get(site_base)

    def keep(self, path: str, digest: str, site_base: int,
             fragment: FileFragment) -> None:
        """Keep ``fragment`` under its key, beside the artifact of its
        content; a path whose entry went or moved on keeps nothing."""
        entry = self._entry(path, digest)
        if entry is not None:
            entry[2][site_base] = fragment


# -- scope graph ---------------------------------------------------------------


@dataclass
class ScopeGraph:
    """Push/pop scope graph over one or more file artifacts.

    ``nodes`` maps a node id to ``(kind, symbol, payload)`` where
    ``symbol`` is the pushed/popped symbol (None for scopes/refs) and
    ``payload`` is the resolved symbol id for definition ``pop`` nodes.
    Edges keep insertion order; resolution sorts candidates, so order
    only affects traversal, never the outcome.
    """

    nodes: dict = field(default_factory=dict)
    edges: dict = field(default_factory=dict)

    def add_node(self, node_id, kind, symbol=None, payload=None):
        self.nodes.setdefault(node_id, (kind, symbol, payload))
        return node_id

    def add_edge(self, src, dst) -> None:
        targets = self.edges.setdefault(src, [])
        if dst not in targets:
            targets.append(dst)

    def node_count(self, kind: str | None = None) -> int:
        if kind is None:
            return len(self.nodes)
        return sum(1 for k, _, _ in self.nodes.values() if k == kind)


def extend_graph(graph: ScopeGraph, artifact: FileArtifact) -> None:
    """Add one file's nodes and edges to a composed scope graph."""
    p = artifact.path
    graph.add_node(PROGRAM_ROOT, SCOPE)
    exports = graph.add_node((p, "exports"), SCOPE)
    lookup = graph.add_node((p, "lookup"), SCOPE)

    # Exports hang off the program root, behind ``pop module`` when the
    # file declares a namespace.
    if artifact.module:
        gate = graph.add_node((p, "popmod"), POP, artifact.module)
        graph.add_edge(PROGRAM_ROOT, gate)
        graph.add_edge(gate, exports)
    else:
        graph.add_edge(PROGRAM_ROOT, exports)

    # Definitions: ``pop f`` nodes carrying the global symbol id.
    for d in artifact.defs:
        node = graph.add_node(
            (p, "def", d.name), POP, d.name,
            payload=symbol_id(artifact.module, d.name),
        )
        graph.add_edge(exports, node)

    # Bare lookup sees local exports first...
    graph.add_edge(lookup, exports)
    # ...then each single-symbol import, as the stack-graph re-route
    # ``pop g -> push g -> push a -> program root`` (restricting the
    # import to exactly one symbol; the module name ends on top of the
    # stack because the provider's root gate pops it first).
    for index, imp in enumerate(artifact.imports):
        if imp.symbol is None:
            continue
        pop_g = graph.add_node((p, "imp", index, "pop"), POP, imp.symbol)
        push_g = graph.add_node((p, "imp", index, "pushsym"), PUSH, imp.symbol)
        push_a = graph.add_node((p, "imp", index, "pushmod"), PUSH, imp.module)
        graph.add_edge(lookup, pop_g)
        graph.add_edge(pop_g, push_g)
        graph.add_edge(push_g, push_a)
        graph.add_edge(push_a, PROGRAM_ROOT)

    # References: bare names search the lookup scope, qualified names
    # push member-then-module and search the program root.
    imported_modules = {i.module for i in artifact.imports}
    for ref in artifact.refs:
        node = graph.add_node((p, "ref", ref.name), REF)
        if "." in ref.name:
            alias, member = ref.name.split(".", 1)
            if alias not in imported_modules:
                continue  # dangling qualified ref: no search path at all
            push_member = graph.add_node(
                (p, "ref", ref.name, "pushsym"), PUSH, member
            )
            push_alias = graph.add_node(
                (p, "ref", ref.name, "pushmod"), PUSH, alias
            )
            graph.add_edge(node, push_member)
            graph.add_edge(push_member, push_alias)
            graph.add_edge(push_alias, PROGRAM_ROOT)
        else:
            push = graph.add_node((p, "ref", ref.name, "push"), PUSH, ref.name)
            graph.add_edge(node, push)
            graph.add_edge(push, lookup)


def resolve_node(graph: ScopeGraph, start) -> list[str]:
    """All definition symbol ids reachable from one node under the
    push/pop discipline, sorted (deterministic ambiguity reporting)."""
    results: set[str] = set()
    queue = deque([(start, ())])
    seen = {(start, ())}
    while queue:
        node, stack = queue.popleft()
        for succ in graph.edges.get(node, ()):
            kind, symbol, payload = graph.nodes[succ]
            if kind == PUSH:
                next_stack = stack + (symbol,)
            elif kind == POP:
                if not stack or stack[-1] != symbol:
                    continue
                next_stack = stack[:-1]
                if payload is not None and not next_stack:
                    results.add(payload)
                    continue
            else:
                next_stack = stack
            state = (succ, next_stack)
            if state not in seen and len(next_stack) <= 8:
                seen.add(state)
                queue.append(state)
    return sorted(results)


# -- resolution ----------------------------------------------------------------


@dataclass
class ScopeStats:
    """Counters exported to the run report's ``scopes`` section."""

    files: int = 0
    modules: int = 0
    imports: int = 0
    definitions: int = 0
    references: int = 0
    scope_resolutions: int = 0
    unresolved_refs: int = 0
    ambiguous_refs: int = 0
    artifact_cache_hits: int = 0
    artifact_cache_misses: int = 0
    artifact_cache_evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class Resolution:
    """The outcome of cross-file scope-graph resolution."""

    artifacts: list[FileArtifact] = field(default_factory=list)
    graph: ScopeGraph = field(default_factory=ScopeGraph)
    stats: ScopeStats = field(default_factory=ScopeStats)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: (path, raw callee name) -> resolved global symbol id.
    bindings: dict = field(default_factory=dict)
    #: global symbol id -> source file path (lint/report attribution).
    file_of: dict = field(default_factory=dict)
    #: path -> (site_base, next_site): the half-open range of call-site
    #: ids assigned to each file in canonical order.  A file's site
    #: count depends only on its own content, so per-file *offsets*
    #: (site - base) are stable across runs that include different
    #: neighbours -- the incremental daemon rebases warnings with this.
    site_ranges: dict = field(default_factory=dict)

    def diagnostic_count(self, kind: str) -> int:
        return sum(1 for d in self.diagnostics if d.kind == kind)


def _diag(kind, func, line, subject, message, file) -> Diagnostic:
    return Diagnostic(kind=kind, func=func, line=line, subject=subject,
                      message=message, file=file)


def resolve_files(artifacts: list[FileArtifact]) -> Resolution:
    """Resolve every reference across a set of per-file artifacts.

    Input order is irrelevant: artifacts are processed in canonical
    (module, path) order and all tie-breaks are lexicographic.
    """
    ordered = sorted(artifacts, key=lambda a: (a.module, a.path))
    out = Resolution(artifacts=ordered)
    stats = out.stats
    stats.files = len(ordered)
    stats.modules = len({a.module for a in ordered if a.module})

    modules: dict[str, FileArtifact] = {}
    for artifact in ordered:
        if artifact.module and artifact.module in modules:
            other = modules[artifact.module]
            out.diagnostics.append(_diag(
                KIND_AMBIGUOUS_IMPORT, "<module>", 0, artifact.module,
                f"module {artifact.module!r} is declared by both"
                f" {other.path!r} and {artifact.path!r}",
                artifact.path,
            ))
        else:
            modules.setdefault(artifact.module, artifact)
        for d in artifact.defs:
            out.file_of[symbol_id(artifact.module, d.name)] = artifact.path
        stats.definitions += len(artifact.defs)

    graph = out.graph
    for artifact in ordered:
        extend_graph(graph, artifact)

    for artifact in ordered:
        local_defs = {d.name for d in artifact.defs}
        exported: dict[str, str] = {}  # bare name -> providing module
        stats.imports += len(artifact.imports)
        for imp in artifact.imports:
            target = modules.get(imp.module)
            if target is None or (imp.module and not target.module):
                out.diagnostics.append(_diag(
                    KIND_UNRESOLVED, "<import>", imp.line, imp.module,
                    f"import of unknown module {imp.module!r}",
                    artifact.path,
                ))
                continue
            if imp.symbol is None:
                continue
            if imp.symbol not in {d.name for d in target.defs}:
                out.diagnostics.append(_diag(
                    KIND_UNRESOLVED, "<import>", imp.line, imp.symbol,
                    f"module {imp.module!r} does not define"
                    f" {imp.symbol!r}",
                    artifact.path,
                ))
                continue
            if imp.symbol in local_defs:
                out.diagnostics.append(_diag(
                    KIND_AMBIGUOUS_IMPORT, "<import>", imp.line, imp.symbol,
                    f"imported {imp.module}.{imp.symbol} collides with a"
                    f" local definition of {imp.symbol!r}"
                    " (the local definition wins)",
                    artifact.path,
                ))
            elif imp.symbol in exported:
                out.diagnostics.append(_diag(
                    KIND_AMBIGUOUS_IMPORT, "<import>", imp.line, imp.symbol,
                    f"{imp.symbol!r} is imported from both"
                    f" {exported[imp.symbol]!r} and {imp.module!r}"
                    " (the lexicographically first module wins)",
                    artifact.path,
                ))
            else:
                exported[imp.symbol] = imp.module

        for ref in artifact.refs:
            stats.references += 1
            in_func = symbol_id(artifact.module, ref.func)
            candidates = resolve_node(graph, (artifact.path, "ref", ref.name))
            if not candidates:
                stats.unresolved_refs += 1
                if "." in ref.name:
                    alias, member = ref.name.split(".", 1)
                    known = modules.get(alias) is not None
                    out.diagnostics.append(_diag(
                        KIND_UNRESOLVED, in_func, ref.line, ref.name,
                        (f"module {alias!r} does not define {member!r}"
                         if known else
                         f"qualified call into unknown module {alias!r}"),
                        artifact.path,
                    ))
                continue
            if len(candidates) > 1:
                stats.ambiguous_refs += 1
                local = symbol_id(artifact.module, ref.name)
                winner = local if local in candidates else candidates[0]
                out.diagnostics.append(_diag(
                    KIND_AMBIGUOUS_IMPORT, in_func, ref.line, ref.name,
                    f"{ref.name!r} resolves to any of"
                    f" {', '.join(candidates)}; using {winner!r}",
                    artifact.path,
                ))
            else:
                winner = candidates[0]
            stats.scope_resolutions += 1
            out.bindings[(artifact.path, ref.name)] = winner
    return out


# -- linking -------------------------------------------------------------------


class LinkError(ParseError):
    """Raised when multi-file linking cannot produce a single program."""


def _rewrite_expr(expr, rewrite):
    if isinstance(expr, ast.Call):
        args = tuple(_rewrite_expr(a, rewrite) for a in expr.args)
        return ast.Call(rewrite(expr.func), args, expr.site)
    if isinstance(expr, ast.Binary):
        return ast.Binary(
            expr.op, _rewrite_expr(expr.left, rewrite),
            _rewrite_expr(expr.right, rewrite),
        )
    if isinstance(expr, ast.Unary):
        return ast.Unary(expr.op, _rewrite_expr(expr.operand, rewrite))
    return expr


def _rewrite_body(body: list, rewrite) -> None:
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            stmt.value = _rewrite_expr(stmt.value, rewrite)
        elif isinstance(stmt, ast.ExprStmt):
            stmt.call = _rewrite_expr(stmt.call, rewrite)
        elif isinstance(stmt, ast.Event):
            stmt.args = tuple(_rewrite_expr(a, rewrite) for a in stmt.args)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                stmt.value = _rewrite_expr(stmt.value, rewrite)
        elif isinstance(stmt, ast.If):
            stmt.cond = _rewrite_expr(stmt.cond, rewrite)
            _rewrite_body(stmt.then_body, rewrite)
            _rewrite_body(stmt.else_body, rewrite)
        elif isinstance(stmt, ast.While):
            stmt.cond = _rewrite_expr(stmt.cond, rewrite)
            _rewrite_body(stmt.body, rewrite)
        elif isinstance(stmt, ast.TryCatch):
            _rewrite_body(stmt.try_body, rewrite)
            _rewrite_body(stmt.catch_body, rewrite)


def link_file(mf: ast.ModuleFile, bindings: dict) -> dict[str, ast.Function]:
    """Linking, one file at a time: the file's functions under their
    global symbol ids, each call rewritten to the symbol ``bindings``
    (raw name -> symbol id) resolves it to.  Rewrites ``mf``'s bodies in
    place.

    The call graph, relevance slicing, constant propagation and DSE
    therefore consume resolved symbol ids -- interprocedural analysis
    crosses file boundaries for free.  Unresolved (extern) callees keep
    their raw name, preserving the single-file extern-call semantics.
    """

    def rewrite(name: str) -> str:
        return bindings.get(name, name)

    out = {}
    for fname, fn in mf.functions.items():
        _rewrite_body(fn.body, rewrite)
        global_name = symbol_id(mf.module, fname)
        out[global_name] = ast.Function(
            global_name, fn.params, fn.body, line=fn.line
        )
    return out


def reload_file(text: str, path: str,
                resolution: Resolution) -> dict[str, ast.Function]:
    """One file of a loaded program, parsed afresh at its site base and
    linked as :func:`load_modules` linked it."""
    mf = parse_module(text, path=path, site_base=resolution.site_ranges[path][0])
    return link_file(mf, file_bindings(resolution).get(path, {}))


def file_bindings(resolution: Resolution) -> dict[str, dict]:
    """``Resolution.bindings`` by file: path -> {raw name: symbol id}."""
    out: dict[str, dict] = {}
    for (path, name), target in resolution.bindings.items():
        out.setdefault(path, {})[name] = target
    return out


def _add_functions(program: ast.Program, functions: dict, path: str) -> None:
    for global_name, fn in functions.items():
        if global_name in program.functions:
            raise LinkError(
                f"duplicate symbol {global_name!r}"
                f" (redefined in {path!r})"
            )
        program.functions[global_name] = fn


# -- the loader ----------------------------------------------------------------


@dataclass
class LoadedProgram:
    """A linked multi-file program plus its resolution record."""

    program: ast.Program
    resolution: Resolution
    module_files: list[ast.ModuleFile] = field(default_factory=list)
    #: path -> the :class:`FileFragment` whose compiled functions stand
    #: in ``program`` for that file's own (only when loaded with a cache).
    fragments: dict = field(default_factory=dict)


def _as_items(sources) -> list[tuple[str, str]]:
    if isinstance(sources, dict):
        return list(sources.items())
    return [(str(path), text) for path, text in sources]


def load_modules(sources, cache: ScopeArtifactCache | None = None) -> LoadedProgram:
    """Parse, resolve and link a multi-file program.

    ``sources`` is ``{path: text}`` or ``[(path, text), ...]`` in any
    order -- files are canonicalised by (module, path) before site ids
    are assigned, so the resulting program is byte-identical however
    the files were discovered.  ``cache`` (optional) holds per-file
    artifacts and compiled files: a file whose artifact is cached under
    its path and content is not re-derived, and one with a
    :class:`FileFragment` under its key whose bindings still hold is
    neither parsed nor linked, its compiled functions stand in the
    program instead, and ``fragments`` lists those files.
    """
    items = _as_items(sources)
    scanned = []
    for path, text in items:
        digest = source_digest(text)
        module = cache.module_name(path, digest) if cache is not None else None
        tokens = None
        if module is None:
            tokens = tokenize(text)
            module = scan_module_name(tokens)
        scanned.append((module, path, text, digest, tokens))
    scanned.sort(key=lambda entry: (entry[0], entry[1]))

    parsed: dict[str, ast.ModuleFile] = {}
    found: dict[str, FileFragment] = {}
    artifacts: list[FileArtifact] = []
    site_ranges: dict = {}
    site_base = 0
    if cache is not None:
        before = cache.hits, cache.misses, cache.evictions
    for _, path, text, digest, tokens in scanned:
        artifact = cache.get(path, digest) if cache is not None else None
        fragment = None
        if artifact is not None:
            fragment = cache.fragment(path, digest, site_base)
        if fragment is None:
            mf = parsed[path] = parse_module(
                text, path=path, site_base=site_base, tokens=tokens
            )
            next_site = mf.next_site
            if artifact is None:
                artifact = build_artifact(mf, digest)
                if cache is not None:
                    cache.put(artifact)
        else:
            found[path], next_site = fragment, fragment.next_site
        site_ranges[path] = (site_base, next_site)
        site_base = next_site
        artifacts.append(artifact)

    resolution = resolve_files(artifacts)
    if cache is not None:
        stats = resolution.stats
        stats.artifact_cache_hits = cache.hits - before[0]
        stats.artifact_cache_misses = cache.misses - before[1]
        stats.artifact_cache_evictions = cache.evictions - before[2]
    resolution.site_ranges = site_ranges
    by_file = file_bindings(resolution)
    program = ast.Program()
    fragments: dict[str, FileFragment] = {}
    for _, path, text, _, _ in scanned:
        bindings = by_file.get(path, {})
        fragment = found.get(path)
        if fragment is not None and fragment.bindings == bindings:
            fragments[path] = fragment
            functions = {
                name: compiled.fn
                for name, compiled in fragment.functions.items()
            }
        else:
            if path not in parsed:  # its calls now link elsewhere
                parsed[path] = parse_module(
                    text, path=path, site_base=site_ranges[path][0]
                )
            functions = link_file(parsed[path], bindings)
        _add_functions(program, functions, path)
    return LoadedProgram(
        program=program, resolution=resolution,
        module_files=[parsed[p] for p in site_ranges if p in parsed],
        fragments=fragments,
    )
