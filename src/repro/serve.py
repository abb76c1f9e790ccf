"""Incremental analysis daemon: ``repro serve`` (DESIGN.md §16).

The batch pipeline answers "what warnings does this program have?" by
recomputing everything.  The daemon answers the question *per edit*:
it watches a workspace of ``.mini`` files, and for every observed
change re-derives only what the edit can influence, replying with the
warning *delta* as a ``grapple/run-report`` fragment.

The incremental spine has three layers, mirroring the spans it emits:

``incr-diff``
    Workspace scan (mtime+size fast path, content digest to confirm).
    Changed files re-parse once; their scope artifacts land in the
    in-memory :class:`~repro.sa.scopes.ScopeArtifactCache` shared with
    the per-stratum Grapple runs, so an edit re-derives exactly one
    artifact.  File-level dependency edges (imports + same-module
    chains -- an over-approximation of cross-file name binding) are
    re-extracted as a plain set of ``(importer, provider)`` pairs.

``incr-join``
    :class:`~repro.engine.incremental.IncrementalClosure` adopts the
    edge set and counts the edges that entered and left.  The
    relation's weakly-connected components, recomputed from scratch,
    are the daemon's **strata**: an edit is confined to the strata of
    its touched files.

``incr-retract``
    Each stratum is checked by an ordinary (deterministic, serial)
    Grapple run, cached by a digest over its membership, content, and
    analysis config.  Inside a stratum the unit of re-analysis is the
    *root clone tree*: the run is handed the root-result tables of the
    strata it supersedes and builds and closes only the trees whose key
    moved (``Grapple.run``, DESIGN.md §16 "root trees").  Warnings are
    stored per root and *rebased*: as ``(file, offset)`` against the
    stratum-local site numbering, so the accumulated state is
    byte-identical to a from-scratch run over the final sources once
    global site bases are re-applied.  Warnings whose stratum result
    was superseded are retracted from the accumulated state and
    reported in the fragment.

``edits_served`` / ``edges_rederived`` (dependency edges added plus
removed) / ``warnings_retracted`` ride the ordinary
:class:`~repro.engine.stats.EngineStats` metadata path into the
fragment's ``counters`` section.  State (file metadata, stratum
results, counters) persists across restarts in one append-only file,
``workdir/serve-state.jsonl``: line 1 is the whole state, and each
later line one served edit's delta.  Nothing else is kept there: the
scope artifacts and compiled functions live in memory only.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import socket
import sys
import time
from dataclasses import dataclass

from repro.analysis.pipeline import Grapple, GrappleOptions
from repro.engine import serialize
from repro.engine.computation import EngineOptions
from repro.engine.incremental import IncrementalClosure
from repro.engine.stats import EngineStats
from repro.graph.cloning import tree_order
from repro.lang.lexer import tokenize
from repro.lang.parser import ParseError, parse_module, scan_module_name
from repro.obs.report import run_report
from repro.sa.scopes import (
    ARTIFACT_CACHE_CAPACITY,
    ScopeArtifactCache,
    build_artifact,
    source_digest,
)

#: Line 1 the whole state, then one JSON line per edit served since.
STATE_FILE = "serve-state.jsonl"
STATE_SCHEMA = "grapple/serve-state"
STATE_VERSION = 2

#: How long one socket client may take to deliver its request line or
#: to read its answer before the (single-threaded) server drops it.
CLIENT_TIMEOUT_S = 5.0

#: Warning identity under edits: stable against *other* files growing
#: or shrinking (offsets are file-local; global site ids are not).
_IDENTITY = ("file", "offset", "checker", "kind", "type_name", "state",
             "func", "line")


@dataclass
class FileMeta:
    """What the daemon remembers about one workspace file."""

    path: str
    digest: str
    module: str
    imports: tuple
    sites: int  # site ids this file consumes (content-determined)
    mtime: float
    size: int

    def to_json(self) -> dict:
        return {
            "digest": self.digest, "module": self.module,
            "imports": list(self.imports), "sites": self.sites,
            "mtime": self.mtime, "size": self.size,
        }

    @classmethod
    def from_json(cls, path: str, doc: dict) -> "FileMeta":
        return cls(
            path=path, digest=doc["digest"], module=doc["module"],
            imports=tuple(doc["imports"]), sites=doc["sites"],
            mtime=doc["mtime"], size=doc["size"],
        )


def _identity(warning: dict) -> tuple:
    return tuple(warning[k] for k in _IDENTITY)


def _warnings(entry: dict) -> list[dict]:
    """A stratum entry's file-relative warnings, its root tables
    flattened the way a whole run merges them: tree by tree, a warning
    several roots report (one allocation site in a shared callee)
    counted once, with the first tree's witness."""
    roots = entry["roots"]
    merged: dict = {}
    for root in tree_order(roots):
        for warning in roots[root][1]:
            merged.setdefault(_identity(warning), warning)
    return list(merged.values())


@functools.lru_cache(maxsize=ARTIFACT_CACHE_CAPACITY)
def _members_digest(members: tuple, config: str) -> str:
    """A stratum's key over its ``(path, content digest)`` pairs and the
    analysis config.  Memoised: every scan keys every stratum, and only
    the edited one has a new member digest."""
    text = json.dumps([*members, ("<config>", config)], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# -- the state file's shape -----------------------------------------------------

_COUNTERS = ("edits_served", "edges_rederived", "warnings_retracted")

#: Field types of a stored warning (``pipeline._SiteRanges.localize``).
_WARNING_TYPES = {
    "file": str, "offset": int, "checker": str, "kind": str,
    "type_name": str, "state": str, "func": str, "line": int,
}

#: Field types of a stored file entry (``FileMeta.to_json``; ``mtime``
#: may be either number).
_META_TYPES = {"digest": str, "module": str, "sites": int, "size": int}


def _strings(value) -> bool:
    return type(value) is list and all(type(v) is str for v in value)


def _warning_ok(doc) -> bool:
    return (
        type(doc) is dict
        and all(type(doc.get(k)) is t for k, t in _WARNING_TYPES.items())
        and _strings(doc.get("witness"))
    )


def _meta_ok(doc) -> bool:
    return (
        type(doc) is dict
        and all(type(doc.get(k)) is t for k, t in _META_TYPES.items())
        and type(doc.get("mtime")) in (int, float)
        and _strings(doc.get("imports"))
    )


def _root_ok(row) -> bool:
    return (
        type(row) is list and len(row) == 2
        and (row[0] is None or type(row[0]) is str)
        and type(row[1]) is list and all(map(_warning_ok, row[1]))
    )


def _entry_ok(entry) -> bool:
    return (
        type(entry) is dict
        and _strings(entry.get("files")) and len(entry["files"]) > 0
        and type(entry.get("roots")) is dict
        and all(map(_root_ok, entry["roots"].values()))
        and type(entry.get("count")) is int
        and type(entry.get("error", "")) is str
    )


def _well_formed(doc: dict) -> bool:
    """Every field of a state line has the type the engine reads it as.
    One check for both kinds: line 1, and an edit line -- the same
    sections holding only what changed, plus the ``removed`` paths and
    the strata digests that ``left``."""
    files, strata, counters = (
        doc.get(key, {}) for key in ("files", "strata", "counters")
    )
    return (
        type(files) is dict and all(map(_meta_ok, files.values()))
        and type(strata) is dict and all(map(_entry_ok, strata.values()))
        and type(counters) is dict
        and all(type(counters.get(k, 0)) is int for k in _COUNTERS)
        and _strings(doc.get("removed", []))
        and _strings(doc.get("left", []))
    )


class ServeEngine:
    """The daemon's state machine; :class:`Server` wraps it in I/O.

    Drive it directly for tests and benchmarks: :meth:`scan` observes
    the workspace and returns one run-report fragment; :meth:`report`
    returns the full accumulated state, byte-comparable (modulo
    witnesses, which are engine-order informational payloads) to a
    from-scratch ``repro check`` over the current sources.
    """

    def __init__(self, workspace: str, workdir: str, fsms,
                 *, unroll: int = 2, reduce: bool = True, trace=None):
        self.workspace = workspace
        self.workdir = workdir
        self.fsms = list(fsms)
        self.unroll = unroll
        self.reduce = reduce
        self.trace = trace
        self.stats = EngineStats()
        os.makedirs(workdir, exist_ok=True)
        self.state_path = os.path.join(workdir, STATE_FILE)
        self.cache = ScopeArtifactCache()
        self.closure = IncrementalClosure()
        self.files: dict[str, FileMeta] = {}
        self.texts: dict[str, str] = {}
        #: stratum digest -> {"files": [...], "roots": {root: [key,
        #: [local warning dicts]]}, "count": distinct warnings}; a
        #: stratum that failed to link has empty "roots", "count" 0 and
        #: its "error".
        self.strata: dict[str, dict] = {}
        #: Per-file parse errors; such a file is re-read on every scan.
        self.errors: dict[str, str] = {}
        # The analysis config is fixed for the engine's lifetime; its
        # digest goes into every stratum digest and every state write.
        payload = {
            "unroll": unroll,
            "reduce": reduce,
            "fsms": sorted(fsm.name for fsm in self.fsms),
        }
        text = json.dumps(payload, sort_keys=True)
        self.config_digest = hashlib.sha256(text.encode()).hexdigest()
        # What changed since the last state write, which appends just
        # that: file entries refreshed or removed; the strata on disk.
        self._dirty: set[str] = set()
        self._removed: set[str] = set()
        self._saved_strata: set[str] = set()
        #: Bytes the edit lines may still grow before they outgrow line
        #: 1; None until this engine has written line 1 (the first write
        #: after a load compacts).
        self._room: int | None = None
        self._load_state()

    # -- persistence -------------------------------------------------------

    def _counters(self) -> dict:
        return {key: getattr(self.stats, key) for key in _COUNTERS}

    def _save_state(self) -> None:
        """Persist what changed since the last write: one edit line --
        the file entries refreshed and the paths removed, the strata
        that entered and the digests that left, the counters -- appended
        with one write and one ``fsync``.  The first write of an engine,
        and one that would grow the edit lines past line 1, compact
        instead: the whole state as a one-line file, one atomic rename."""
        line = {
            "files": {
                p: self.files[p].to_json()
                for p in sorted(self._dirty) if p in self.files
            },
            "removed": sorted(self._removed),
            "strata": {
                digest: self.strata[digest]
                for digest in sorted(self.strata.keys() - self._saved_strata)
            },
            "left": sorted(self._saved_strata - self.strata.keys()),
            "counters": self._counters(),
        }
        data = json.dumps(line, sort_keys=True).encode() + b"\n"
        if self._room is None or len(data) > self._room:
            head = {
                "schema": STATE_SCHEMA, "version": STATE_VERSION,
                "config": self.config_digest,
                "files": {p: m.to_json() for p, m in self.files.items()},
                "strata": self.strata, "counters": self._counters(),
            }
            data = json.dumps(head, sort_keys=True).encode() + b"\n"
            serialize.atomic_write_bytes(self.state_path, data)
            self._room = len(data)
        else:
            with open(self.state_path, "ab") as f:
                f.write(data)
                f.flush()
                os.fsync(f.fileno())
            self._room -= len(data)
        self._dirty.clear()
        self._removed.clear()
        self._saved_strata = set(self.strata)

    def _load_state(self) -> None:
        """Adopt line 1, then the complete edit lines after it, each the
        successor of the state so far (``edits_served`` one higher), up
        to the first that is not.  A line 1 that is not this config's
        state, or whose fields do not all have their types, is no state:
        decided before anything is adopted, never a half-loaded engine."""
        try:
            with open(self.state_path, "rb") as f:
                *lines, _torn = f.read().split(b"\n")
        except OSError:
            return
        doc = serialize.parse_json_object(lines[0]) if lines else None
        if (doc is None
                or doc.get("schema") != STATE_SCHEMA
                or doc.get("version") != STATE_VERSION
                # different analysis config: results are not reusable
                or doc.get("config") != self.config_digest
                or not _well_formed(doc)):
            return
        self._adopt(doc)
        for raw in lines[1:]:
            line = serialize.parse_json_object(raw)
            if (line is None or not _well_formed(line)
                    or line.get("counters", {}).get("edits_served")
                    != self.stats.edits_served + 1):
                break
            self._adopt(line)
        self._saved_strata = set(self.strata)
        # The relation the remembered metadata implies; the next scan()
        # diffs the real workspace against it.
        self.closure.apply(self._desired_edges())

    def _adopt(self, doc: dict) -> None:
        """Apply a well-formed state line."""
        for path in doc.get("removed", ()):
            self.files.pop(path, None)
        for digest in doc.get("left", ()):
            self.strata.pop(digest, None)
        for path, meta in doc.get("files", {}).items():
            self.files[path] = FileMeta.from_json(path, meta)
        self.strata.update(doc.get("strata", {}))
        counters = doc.get("counters", {})
        for key in _COUNTERS:
            setattr(self.stats, key, counters.get(key, 0))

    # -- workspace observation ---------------------------------------------

    def _workspace_files(self) -> list[str]:
        try:
            names = os.listdir(self.workspace)
        except OSError:
            return []
        return sorted(n for n in names if n.endswith(".mini"))

    def _read(self, path: str) -> str:
        """A workspace file's text.  One the daemon cannot read (a
        directory, a vanished or non-UTF-8 file) is a ParseError: the
        edit reports it and the last good analysis stays."""
        try:
            with open(os.path.join(self.workspace, path)) as f:
                return f.read()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"cannot read {path}: {exc.reason}"
                             f" at byte {exc.start}") from None

    def _text(self, path: str) -> str:
        if path not in self.texts:
            self.texts[path] = self._read(path)
        return self.texts[path]

    def _observe(self, path: str, text: str, mtime: float,
                 size: int) -> FileMeta:
        """Parse one changed file and refresh its cached artifact."""
        digest = source_digest(text)
        tokens = tokenize(text)
        module = scan_module_name(tokens)
        mf = parse_module(text, path=path, tokens=tokens)
        if self.cache.get(path, digest) is None:
            self.cache.put(build_artifact(mf, digest))
        return FileMeta(
            path=path, digest=digest, module=module,
            imports=tuple(i.module for i in mf.imports),
            sites=mf.next_site, mtime=mtime, size=size,
        )

    def _diff_workspace(self, only=None) -> tuple[list[str], list[str]]:
        """Observe the workspace; returns (changed, removed) paths.

        ``only`` restricts the stat scan to the named paths (the socket
        edit op knows exactly what it wrote); removal detection always
        sees the full listing.
        """
        present = self._workspace_files()
        removed = [p for p in self.files if p not in present]
        for path in removed:
            del self.files[path]
            self.texts.pop(path, None)
        self._removed.update(removed)
        # Not only ``removed``: a file that never parsed has no meta.
        self.errors = {
            p: e for p, e in self.errors.items() if p in present
        }
        changed: list[str] = []
        candidates = present if only is None else [
            p for p in present if p in only
        ]
        for path in candidates:
            try:
                st = os.stat(os.path.join(self.workspace, path))
            except OSError:
                continue
            meta = self.files.get(path)
            if (meta is not None and path not in self.errors
                    and meta.mtime == st.st_mtime and meta.size == st.st_size):
                continue
            try:
                text = self._read(path)
                if meta is not None and meta.digest == source_digest(text) \
                        and path not in self.errors:
                    meta.mtime, meta.size = st.st_mtime, st.st_size
                    self._dirty.add(path)
                    continue
                new_meta = self._observe(path, text, st.st_mtime, st.st_size)
            except ParseError as exc:
                # A broken file keeps its last good analysis (if any);
                # the fragment carries the error instead of a crash.
                self.errors[path] = str(exc)
                continue
            self.errors.pop(path, None)
            self.files[path] = new_meta
            self._dirty.add(path)
            self.texts[path] = text
            changed.append(path)
        return changed, removed

    # -- dependency edges and strata ---------------------------------------

    def _desired_edges(self) -> set:
        """File-level dependency edges implied by current metadata:
        importer -> provider for every import, plus a chain linking
        files that declare the same module (they share a namespace).
        This over-approximates cross-file name binding, so distinct
        strata can never influence each other's warnings."""
        providers: dict[str, list[str]] = {}
        for meta in self.files.values():
            providers.setdefault(meta.module, []).append(meta.path)
        pairs: set = set()
        for paths in providers.values():
            paths.sort()
            pairs.update(zip(paths, paths[1:]))
        for meta in self.files.values():
            for module in meta.imports:
                for path in providers.get(module, ()):
                    if path != meta.path:
                        pairs.add((meta.path, path))
        return pairs

    def _stratum_digest(self, membership: list[str]) -> str:
        members = tuple((p, self.files[p].digest) for p in membership)
        return _members_digest(members, self.config_digest)

    def _run_stratum(self, membership: list[str], root_table: dict):
        sources = {p: self._text(p) for p in membership}
        options = GrappleOptions(
            unroll=self.unroll, reduce=self.reduce, scope_cache=self.cache,
            root_table=root_table, engine=EngineOptions(trace=self.trace),
        )
        return Grapple(sources, self.fsms, options).run()

    # -- the edit loop -----------------------------------------------------

    def scan(self, only=None) -> dict:
        """Observe the workspace once; re-derive what changed; return
        the edit's ``grapple/run-report`` fragment."""
        t0 = time.perf_counter()
        tick = self.trace.begin() if self.trace is not None else 0.0
        misses_before = self.cache.misses
        changed, removed = self._diff_workspace(only=only)
        rederived = self.cache.misses - misses_before
        desired = self._desired_edges()
        if self.trace is not None:
            self.trace.end("incr-diff", tick, cat="serve",
                           changed=len(changed), removed=len(removed))
        if not changed and not removed and desired == self.closure.edges:
            return self._fragment(t0, [], [], [], [], [], None, 0)

        tick = self.trace.begin() if self.trace is not None else 0.0
        edges_added, edges_removed = self.closure.apply(desired)
        self.stats.edits_served += 1
        self.stats.edges_rederived += edges_added + edges_removed
        if self.trace is not None:
            self.trace.end("incr-join", tick, cat="serve")

        components = [
            sorted(component)
            for component in self.closure.components(self.files)
        ]
        digests = [self._stratum_digest(m) for m in components]
        # What the strata about to be superseded knew, root by root: a
        # re-check builds only the clone trees whose key has moved.  The
        # keys cover everything a root's warnings depend on, so it does
        # not matter which stratum a root was last checked in.
        known: dict = {}
        for digest, entry in self.strata.items():
            if digest not in digests:
                known.update(entry["roots"])
        # A failed stratum is tried again when a file of it changed
        # without changing its digest: it came back from an error, e.g.
        # a text that could not be read after a restart.  It re-enters
        # as new, so the warning diff and the state file both see it.
        retry = set(changed)
        for membership, digest in zip(components, digests):
            if ("error" in self.strata.get(digest, ())
                    and not retry.isdisjoint(membership)):
                del self.strata[digest]
                self._saved_strata.discard(digest)
        new_strata: dict[str, dict] = {}
        runs = []
        for membership, digest in zip(components, digests):
            entry = self.strata.get(digest)
            if entry is None:
                try:
                    run = self._run_stratum(membership, known)
                except ParseError as exc:
                    # LinkError (duplicate symbols after an edit) and
                    # friends: the stratum contributes no warnings but
                    # the daemon keeps serving.  The error lives with
                    # the entry, so it lasts exactly as long as the
                    # stratum does (restarts included).
                    entry = {"files": membership, "roots": {}, "count": 0,
                             "error": str(exc)}
                else:
                    runs.append(run)
                    entry = {"files": membership, "roots": run.root_table,
                             "count": len(run.report)}
            new_strata[digest] = entry

        tick = self.trace.begin() if self.trace is not None else 0.0
        # Strata partition the files, so a stratum whose digest survived
        # contributes the same warnings to both sides of the diff: only
        # the strata that left or entered need keying.
        before = {
            _identity(w): w
            for digest, entry in self.strata.items()
            if digest not in new_strata for w in _warnings(entry)
        }
        after = {
            _identity(w): w
            for digest, entry in new_strata.items()
            if digest not in self.strata for w in _warnings(entry)
        }
        self.strata = new_strata
        added = [after[k] for k in sorted(after.keys() - before.keys())]
        retracted = [before[k] for k in sorted(before.keys() - after.keys())]
        self.stats.warnings_retracted += len(retracted)
        if self.trace is not None:
            self.trace.end("incr-retract", tick, cat="serve",
                           retracted=len(retracted))
        self._save_state()
        return self._fragment(
            t0, runs, changed, removed, added, retracted,
            {"edges_added": edges_added, "edges_removed": edges_removed},
            rederived,
        )

    def _workspace_path(self, path) -> str:
        """Where a request's ``path`` lives, or ValueError: only a bare
        ``*.mini`` name -- all :meth:`_workspace_files` ever observes --
        is accepted, so no request reaches outside the workspace."""
        if (
            not isinstance(path, str)
            or not path.endswith(".mini")
            or os.path.basename(path) != path
        ):
            raise ValueError(
                f"path must be a bare .mini file name, got {path!r}"
            )
        return os.path.join(self.workspace, path)

    def edit(self, path: str, text: str) -> dict:
        """Apply one edit (write-through to the workspace) and answer."""
        full = self._workspace_path(path)
        if not isinstance(text, str):
            raise ValueError(f"text must be a string, got {text!r}")
        try:
            serialize.atomic_write_bytes(full, text.encode())
        except OSError as exc:
            # A directory at ``path``, a taken temp name, a read-only
            # workspace: refused like a bad request, the daemon lives.
            with contextlib.suppress(OSError):
                os.remove(f"{full}.tmp")
            raise ValueError(f"cannot write {path}: {exc.strerror}") from None
        return self.scan(only={path})

    def remove(self, path: str) -> dict:
        with contextlib.suppress(OSError):
            os.remove(self._workspace_path(path))
        return self.scan(only=set())

    # -- accumulated state -------------------------------------------------

    def _site_bases(self) -> dict[str, int]:
        """Global site base per file, matching the batch loader's
        canonical (module, path) file order over the current sources."""
        order = sorted(self.files.values(), key=lambda m: (m.module, m.path))
        bases: dict[str, int] = {}
        acc = 0
        for meta in order:
            bases[meta.path] = acc
            acc += meta.sites
        return bases

    def warnings(self) -> list[dict]:
        """The accumulated warnings, rebased to global site ids --
        identical to a from-scratch run over the current sources."""
        bases = self._site_bases()
        out = []
        for entry in self.strata.values():
            for w in _warnings(entry):
                doc = dict(w)
                doc["site"] = bases[w["file"]] + w["offset"]
                out.append(doc)
        out.sort(key=_identity)
        return out

    def _errors(self) -> dict[str, str]:
        """Every error in force: each failed stratum's link error under
        its first file, then the per-file parse errors."""
        errors = {
            entry["files"][0]: entry["error"]
            for entry in self.strata.values() if "error" in entry
        }
        errors.update(self.errors)
        return dict(sorted(errors.items()))

    def report(self) -> dict:
        """The full accumulated state as one JSON document."""
        return {
            "schema": "grapple/serve-report",
            "version": 1,
            "workspace": self.workspace,
            "files": {p: m.digest for p, m in sorted(self.files.items())},
            "strata": [
                {"digest": digest, "files": entry["files"],
                 "warnings": entry["count"]}
                for digest, entry in sorted(self.strata.items())
            ],
            "errors": self._errors(),
            "warnings": self.warnings(),
            "counters": self._counters(),
        }

    # -- fragments ---------------------------------------------------------

    def _fragment(self, t0, runs, changed, removed, added, retracted,
                  dependencies, rederived) -> dict:
        """One per-edit ``grapple/run-report`` (v2) fragment.

        The standard sections aggregate the stratum runs this edit
        triggered, plus their summed ``scopes`` counters; the extra
        ``edit`` section carries the delta.  The document passes
        ``repro.obs.report.validate_run_report`` (unknown sections are
        ignored by v1/v2 readers).
        """
        merged = EngineStats()
        scopes: dict[str, int] = {}
        for run in runs:
            merged.merge_phase(run.stats)
            for key, value in run.compiled.resolution.stats.as_dict().items():
                scopes[key] = scopes.get(key, 0) + value
        merged.edits_served = self.stats.edits_served
        merged.edges_rederived = self.stats.edges_rederived
        merged.warnings_retracted = self.stats.warnings_retracted
        total = time.perf_counter() - t0
        preprocess = sum(r.preprocess_time for r in runs)
        return run_report(
            merged,
            {
                "preprocess_s": preprocess,
                "computation_s": max(total - preprocess, 0.0),
                "total_s": total,
            },
            sum(entry["count"] for entry in self.strata.values()),
            subject=f"serve:{self.workspace}",
            edit={
                "seq": self.stats.edits_served,
                "changed": sorted(changed),
                "removed": sorted(removed),
                "errors": self._errors(),
                "artifacts_rederived": rederived,
                "strata_rechecked": len(runs),
                "strata_total": len(self.strata),
                # Root clone trees of the re-checked strata / those whose
                # key had moved, i.e. that were built and closed again.
                "roots": {
                    "total": sum(len(r.root_table) for r in runs),
                    "rechecked": sum(len(r.rechecked) for r in runs),
                },
                # Their functions / those a pass ran over again: the rest
                # came compiled out of the scope cache.
                "functions": {
                    "total": sum(
                        len(r.compiled.program.functions) for r in runs),
                    "recompiled": sum(r.compiled.recompiled for r in runs),
                },
                "dependencies": dependencies,
                "warnings_added": added,
                "warnings_retracted": retracted,
            },
            scopes=scopes or None,
        )


class Server:
    """Line-oriented JSON protocol over a local unix socket.

    One request per connection, newline-terminated::

        {"op": "ping"}
        {"op": "scan"}
        {"op": "edit", "path": "core.mini", "text": "..."}
        {"op": "remove", "path": "core.mini"}
        {"op": "report"}
        {"op": "shutdown"}

    Between connections the server polls the workspace (mtime+digest,
    no external watchers), so out-of-band edits are served too.
    """

    def __init__(self, engine: ServeEngine, socket_path: str | None = None,
                 poll: float = 0.5, out=None):
        self.engine = engine
        self.socket_path = socket_path
        self.poll = poll
        self.out = out if out is not None else sys.stdout
        self._sock = None
        self._shutdown = False

    def _emit(self, doc: dict) -> None:
        json.dump(doc, self.out, sort_keys=True)
        self.out.write("\n")
        self.out.flush()

    def _handle(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "scan":
            return self.engine.scan()
        if op == "edit":
            return self.engine.edit(request["path"], request["text"])
        if op == "remove":
            return self.engine.remove(request["path"])
        if op == "report":
            return self.engine.report()
        if op == "shutdown":
            self._shutdown = True
            return {"ok": True, "op": "shutdown"}
        return {"error": f"unknown op {op!r}"}

    def _serve_connection(self, conn) -> None:
        """One request, one answer.  The server is single-threaded, so a
        client that stalls or hangs up costs itself the connection and
        nobody else anything: its socket errors stop here."""
        with conn:
            conn.settimeout(CLIENT_TIMEOUT_S)
            try:
                data = _recv_line(conn)
            except OSError:  # timed out or reset mid-request
                return
            if not data.strip():
                return
            response = json.dumps(self._answer(data), sort_keys=True)
            try:
                conn.sendall(response.encode() + b"\n")
            except OSError:  # hung up before reading the answer
                pass

    def _answer(self, data: bytes) -> dict:
        request = serialize.parse_json_object(data)
        if request is None:
            return {"error": "request must be one JSON object"}
        try:
            return self._handle(request)
        except (ValueError, KeyError) as exc:
            return {"error": str(exc)}

    def run(self, max_requests: int | None = None) -> int:
        """Serve until shutdown (or ``max_requests`` connections)."""
        fragment = self.engine.scan()  # cold start: bring state current
        self._emit(fragment)
        if self.socket_path is None:
            # Pure polling mode: no socket, just watch the workspace.
            while not self._shutdown:
                time.sleep(self.poll)
                fragment = self.engine.scan()
                if fragment["edit"]["changed"] or fragment["edit"]["removed"]:
                    self._emit(fragment)
            return 0
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        with contextlib.suppress(OSError):
            os.unlink(self.socket_path)
        try:
            sock.bind(self.socket_path)
        except OSError as exc:  # which names no path
            sock.close()
            raise OSError(exc.errno, exc.strerror, self.socket_path) from None
        sock.listen(8)
        sock.settimeout(self.poll)
        self._sock = sock
        served = 0
        try:
            while not self._shutdown:
                try:
                    conn, _ = sock.accept()
                except socket.timeout:
                    fragment = self.engine.scan()
                    if fragment["edit"]["changed"] \
                            or fragment["edit"]["removed"]:
                        self._emit(fragment)
                    continue
                self._serve_connection(conn)
                served += 1
                if max_requests is not None and served >= max_requests:
                    break
        finally:
            sock.close()
            with contextlib.suppress(OSError):
                os.unlink(self.socket_path)
        return 0


def _recv_line(sock) -> bytes:
    """Bytes up to and including the first newline-terminated chunk, or
    whatever arrived before the peer closed."""
    data = b""
    while not data.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    return data


def request(socket_path: str, payload: dict) -> dict:
    """One client round-trip against a running :class:`Server`."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.connect(socket_path)
        sock.sendall(json.dumps(payload).encode() + b"\n")
        data = _recv_line(sock)
    return json.loads(data)
