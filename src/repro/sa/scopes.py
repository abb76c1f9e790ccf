"""Cross-file name resolution for multi-file programs (DESIGN.md §15).

Each file compiles *independently* to a :class:`FileArtifact`: its
module, definitions, imports and the callee names it references.
Nothing in an artifact depends on any other file, so the analysis
daemon keeps each file's artifact in memory under its path and content
digest and re-resolves a program after an edit without re-deriving the
others.

Lookup rules
------------

The language has two namespace levels, so resolution is a table lookup:
module -> the names defined by *any* file declaring it.  For a file of
module ``m`` (``""``, the root namespace, when it has no header):

* a bare ``g`` binds to the file's own ``g``, plus ``a.g`` for every
  ``import a.g;`` whose module defines ``g``;
* a qualified ``a.f`` binds to ``a.f`` when the file imports ``a``
  (``import a;`` or ``import a.g;``) and ``a`` defines ``f``;
* nothing else answers: the root namespace is never reached through a
  module name, and a whole-module ``import a;`` leaves bare names alone.

Outcomes are deterministic (sorted candidates, lexicographic
tie-breaks), never dependent on dict or file discovery order:

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
from dataclasses import dataclass, field, fields

from repro.checkers.report import Diagnostic
from repro.engine.cache import LRUCache
from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.parser import ParseError, parse_module, scan_module_name
from repro.obs.trace import TraceRecorder

KIND_UNRESOLVED = "unresolved-name"
KIND_AMBIGUOUS_IMPORT = "ambiguous-import"


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
        imports=[ImportRecord(i.module, i.symbol, i.line)
                 for i in mf.imports],
        refs=file_references(mf),
    )


#: Default bound on the files the cache holds.  A path holds one
#: content at a time; 1024 paths comfortably cover a large workspace.
ARTIFACT_CACHE_CAPACITY = 1024

#: Functions per file the fact-digest memo makes room for.
FUNCTIONS_PER_FILE = 16


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


@dataclass(slots=True)
class _Entry:
    """One path's content in :class:`ScopeArtifactCache`."""

    digest: str
    artifact: FileArtifact
    #: site_base -> FileFragment.
    fragments: dict
    #: The content parsed at site base 0, until a load takes it.
    parsed: ast.ModuleFile | None


class ScopeArtifactCache:
    """The analysis daemon's per-file memo, in memory, keyed by path.

    A path's entry is the content digest last seen there, that
    content's :class:`FileArtifact` and its compiled functions
    (:class:`FileFragment`) by site base.  A new digest at a path
    replaces the path's entry, and beyond ``capacity`` the least
    recently used path goes.  A file met again at the same path and
    content is not re-derived, and at the same site base too it is
    neither tokenised nor parsed.  The parse an entry was derived from
    waits in it for the first load, which rebases it instead of parsing
    the file again.
    """

    def __init__(self, capacity: int = ARTIFACT_CACHE_CAPACITY):
        self.hits = 0
        self.misses = 0
        #: path -> _Entry.
        self._entries = LRUCache(capacity)
        #: Function -> the facts and digest of its last root key
        #: (:func:`~repro.graph.cloning.root_keys`); a file holds a few
        #: functions, so this bound is a multiple of ``capacity``.
        self.fact_digests = LRUCache(capacity * FUNCTIONS_PER_FILE)

    @property
    def evictions(self) -> int:
        return self._entries.evictions

    def __len__(self) -> int:
        return len(self._entries)

    def _entry(self, path: str, digest: str) -> _Entry | None:
        entry = self._entries.get(path)
        return entry if entry is not None and entry.digest == digest else None

    def get(self, path: str, digest: str) -> FileArtifact | None:
        """The artifact of this content at this path, or None (a miss)."""
        entry = self._entry(path, digest)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry.artifact

    def put(self, artifact: FileArtifact,
            parsed: ast.ModuleFile | None = None) -> None:
        """Make ``artifact`` its path's entry, with no fragment yet;
        ``parsed`` is the content parsed at site base 0, if at hand."""
        self._entries.put(
            artifact.path, _Entry(artifact.digest, artifact, {}, parsed)
        )

    def take_parse(self, path: str, digest: str) -> ast.ModuleFile | None:
        """The entry's site-base-0 parse, which the caller now owns."""
        entry = self._entry(path, digest)
        if entry is None:
            return None
        parsed, entry.parsed = entry.parsed, None
        return parsed

    def module_name(self, path: str, digest: str) -> str | None:
        """The module this content at this path declares, if it was
        seen before; None sends the caller to the lexer."""
        entry = self._entry(path, digest)
        return None if entry is None else entry.artifact.module

    def fragment(self, path: str, digest: str,
                 site_base: int) -> FileFragment | None:
        """The file's compiled functions, if this content was compiled
        at this path and site base -- everything the parser reads."""
        entry = self._entry(path, digest)
        return None if entry is None else entry.fragments.get(site_base)

    def keep(self, path: str, digest: str, site_base: int,
             fragment: FileFragment) -> None:
        """Keep ``fragment`` under its key, beside the artifact of its
        content; a path whose entry went or moved on keeps nothing."""
        entry = self._entry(path, digest)
        if entry is not None:
            entry.fragments[site_base] = fragment


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
    """The outcome of cross-file name resolution."""

    artifacts: list[FileArtifact] = field(default_factory=list)
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


def _candidates(artifact: FileArtifact, name: str, local_defs: set,
                defined: dict) -> list[str]:
    """The symbol ids one reference of ``artifact`` may bind to, sorted:
    ``a.f`` names module ``a``'s ``f`` when the file imports ``a``; a
    bare ``g`` names the file's own ``g`` and each ``import a.g;``."""
    if "." in name:
        alias, member = name.split(".", 1)
        imported = any(imp.module == alias for imp in artifact.imports)
        return [name] if imported and member in defined.get(alias, ()) else []
    found = {symbol_id(artifact.module, name)} if name in local_defs else set()
    found.update(
        symbol_id(imp.module, name) for imp in artifact.imports
        if imp.symbol == name and name in defined.get(imp.module, ())
    )
    return sorted(found)


def resolve_files(artifacts: list[FileArtifact]) -> Resolution:
    """Resolve every reference across a set of per-file artifacts.

    Input order is irrelevant: artifacts are processed in canonical
    (module, path) order and all tie-breaks are lexicographic.
    """
    ordered = sorted(artifacts, key=lambda a: (a.module, a.path))
    out = Resolution(artifacts=ordered)
    stats = out.stats
    stats.files = len(ordered)

    #: module -> the names defined by any file declaring it.
    defined: dict[str, set[str]] = {}
    first_path: dict[str, str] = {}  # module -> its first file
    for artifact in ordered:
        module = artifact.module
        if module in first_path:
            out.diagnostics.append(_diag(
                KIND_AMBIGUOUS_IMPORT, "<module>", 0, module,
                f"module {module!r} is declared by both"
                f" {first_path[module]!r} and {artifact.path!r}",
                artifact.path,
            ))
        elif module:
            first_path[module] = artifact.path
        if module:
            defined.setdefault(module, set()).update(
                d.name for d in artifact.defs
            )
        for d in artifact.defs:
            out.file_of[symbol_id(artifact.module, d.name)] = artifact.path
        stats.definitions += len(artifact.defs)
    stats.modules = len(defined)

    for artifact in ordered:
        local_defs = {d.name for d in artifact.defs}
        exported: dict[str, str] = {}  # bare name -> providing module
        stats.imports += len(artifact.imports)
        for imp in artifact.imports:
            if imp.module not in defined:
                out.diagnostics.append(_diag(
                    KIND_UNRESOLVED, "<import>", imp.line, imp.module,
                    f"import of unknown module {imp.module!r}",
                    artifact.path,
                ))
                continue
            if imp.symbol is None:
                continue
            if imp.symbol not in defined[imp.module]:
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
            candidates = _candidates(artifact, ref.name, local_defs, defined)
            if not candidates:
                stats.unresolved_refs += 1
                if "." in ref.name:
                    alias, member = ref.name.split(".", 1)
                    known = alias in defined
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


def _rewrite_expr(expr, rewrite, shift):
    if isinstance(expr, ast.Call):
        args = tuple(_rewrite_expr(a, rewrite, shift) for a in expr.args)
        return ast.Call(rewrite(expr.func), args, expr.site + shift)
    if isinstance(expr, ast.Binary):
        return ast.Binary(
            expr.op, _rewrite_expr(expr.left, rewrite, shift),
            _rewrite_expr(expr.right, rewrite, shift),
        )
    if isinstance(expr, ast.Unary):
        return ast.Unary(expr.op, _rewrite_expr(expr.operand, rewrite, shift))
    if shift and isinstance(expr, ast.New):
        return ast.New(expr.type_name, expr.site + shift)
    if shift and isinstance(expr, ast.Input):
        return ast.Input(expr.site + shift)
    return expr


def _rewrite_body(body: list, rewrite, shift: int) -> None:
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            stmt.value = _rewrite_expr(stmt.value, rewrite, shift)
        elif isinstance(stmt, ast.ExprStmt):
            stmt.call = _rewrite_expr(stmt.call, rewrite, shift)
        elif isinstance(stmt, ast.Event):
            stmt.args = tuple(
                _rewrite_expr(a, rewrite, shift) for a in stmt.args
            )
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                stmt.value = _rewrite_expr(stmt.value, rewrite, shift)
        elif isinstance(stmt, ast.If):
            stmt.cond = _rewrite_expr(stmt.cond, rewrite, shift)
            _rewrite_body(stmt.then_body, rewrite, shift)
            _rewrite_body(stmt.else_body, rewrite, shift)
        elif isinstance(stmt, ast.While):
            stmt.cond = _rewrite_expr(stmt.cond, rewrite, shift)
            _rewrite_body(stmt.body, rewrite, shift)
        elif isinstance(stmt, ast.TryCatch):
            _rewrite_body(stmt.try_body, rewrite, shift)
            _rewrite_body(stmt.catch_body, rewrite, shift)


def link_file(mf: ast.ModuleFile, bindings: dict,
              shift: int = 0) -> dict[str, ast.Function]:
    """Linking, one file at a time: the file's functions under their
    global symbol ids, each call rewritten to the symbol ``bindings``
    (raw name -> symbol id) resolves it to, and every site id moved up
    by ``shift`` (a file parsed at another base).  Rewrites ``mf``'s
    bodies in place.

    The call graph, relevance slicing, constant propagation and DSE
    therefore consume resolved symbol ids -- interprocedural analysis
    crosses file boundaries for free.  Unresolved (extern) callees keep
    their raw name, preserving the single-file extern-call semantics.
    A file that moves no site and whose every binding is a name to
    itself (a header-less file) links as parsed, bodies untouched.
    """

    def rewrite(name: str) -> str:
        return bindings.get(name, name)

    identity = not shift and all(
        name == target for name, target in bindings.items()
    )
    out = {}
    mf.next_site += shift
    for fname, fn in mf.functions.items():
        if not identity:
            _rewrite_body(fn.body, rewrite, shift)
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


def load_modules(sources, cache: ScopeArtifactCache | None = None,
                 trace=None) -> LoadedProgram:
    """Parse, resolve and link a multi-file program.

    ``sources`` is ``{path: text}`` or ``[(path, text), ...]`` in any
    order -- files are canonicalised by (module, path) before site ids
    are assigned, so the resulting program is byte-identical however
    the files were discovered.  ``cache`` (optional) holds per-file
    artifacts and compiled files: a file whose artifact is cached under
    its path and content is not re-derived, and one with a
    :class:`FileFragment` under its key whose bindings still hold is
    neither parsed nor linked, its compiled functions stand in the
    program instead, and ``fragments`` lists those files.  A file the
    cache holds a site-base-0 parse of (the serve daemon's scan made
    it) is not parsed again: linking rebases that parse.  Lexing and
    parsing are ``parse`` spans on ``trace``, the run's recorder.
    """
    trace = trace or TraceRecorder(chrome=False)
    items = _as_items(sources)
    scanned = []
    for path, text in items:
        digest = source_digest(text)
        module = cache.module_name(path, digest) if cache is not None else None
        tokens = None
        if module is None:
            with trace.span("parse", cat="lang"):
                tokens = tokenize(text)
                module = scan_module_name(tokens)
        scanned.append((module, path, text, digest, tokens))
    scanned.sort(key=lambda entry: (entry[0], entry[1]))

    parsed: dict[str, ast.ModuleFile] = {}
    #: path -> how far its parse's site ids lie below its base.
    shifts: dict[str, int] = {}

    def parse(path: str, text: str, digest: str, base: int, tokens=None):
        """The file parsed at ``base``, or the cache's parse at base 0,
        which linking then rebases."""
        mf = cache.take_parse(path, digest) if cache is not None else None
        shifts[path] = 0 if mf is None else base
        if mf is None:
            with trace.span("parse", cat="lang"):
                mf = parse_module(text, path=path, site_base=base,
                                  tokens=tokens)
        parsed[path] = mf
        return mf

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
            mf = parse(path, text, digest, site_base, tokens)
            next_site = mf.next_site + shifts[path]
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
    for _, path, text, digest, _ in scanned:
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
                parse(path, text, digest, site_ranges[path][0])
            functions = link_file(parsed[path], bindings, shifts[path])
        _add_functions(program, functions, path)
    return LoadedProgram(
        program=program, resolution=resolution,
        module_files=[parsed[p] for p in site_ranges if p in parsed],
        fragments=fragments,
    )
