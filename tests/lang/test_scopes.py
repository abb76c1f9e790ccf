"""Scope-graph name resolution across files (DESIGN.md §15)."""

import itertools
import json
import os

import pytest

from repro.analysis.frontend import compile_source
from repro.analysis.pipeline import Grapple
from repro.checkers import socket_checker
from repro.graph.cloning import _canonical
from repro.lang.parser import ParseError, parse_module, parse_program
from repro.sa import scopes
from repro.sa.scopes import (
    KIND_AMBIGUOUS_IMPORT,
    KIND_UNRESOLVED,
    FileArtifact,
    LinkError,
    ScopeArtifactCache,
    load_modules,
    source_digest,
    symbol_id,
)

NET = """
module net;

func open_conn(x) {
    var s = new Socket();
    s.connect(x);
    return s;
}

func shut(s) {
    s.close();
    return 0;
}
"""

APP = """
import net;
import net.shut;

func main(x) {
    var a = net.open_conn(x);
    shut(a);
    var b = net.open_conn(x);
    return b;
}
"""


def test_symbol_id_qualification():
    assert symbol_id("net", "shut") == "net.shut"
    # Root namespace stays bare: single-file programs keep their names.
    assert symbol_id("", "main") == "main"
    # '.' qualification, never '::' (the engine namespaces instances as
    # 'func::var', and '::' in a function name would break that).
    assert "::" not in symbol_id("a", "b")


def test_single_file_dict_links_byte_identical_to_legacy_parse():
    src = """
    func helper(v) {
        return v + 1;
    }

    func main(x) {
        var y = helper(x);
        return y;
    }
    """
    legacy = parse_program(src)
    loaded = load_modules({"prog.mini": src})
    assert loaded.program == legacy
    assert loaded.resolution.stats.scope_resolutions == 1
    assert loaded.resolution.diagnostics == []


def test_cross_module_bindings_and_linked_names():
    loaded = load_modules({"app.mini": APP, "net.mini": NET})
    res = loaded.resolution
    # Qualified call and symbol import both bind to global symbol ids.
    assert res.bindings[("app.mini", "net.open_conn")] == "net.open_conn"
    assert res.bindings[("app.mini", "shut")] == "net.shut"
    # The linked program's functions are renamed to global ids; the
    # root-namespace entry keeps its bare name.
    assert set(loaded.program.functions) == {
        "main", "net.open_conn", "net.shut"
    }
    assert res.file_of["net.shut"] == "net.mini"
    assert res.stats.files == 2
    assert res.stats.modules == 1
    assert res.stats.unresolved_refs == 0


def test_cross_file_checking_finds_the_leaked_socket_only():
    run = Grapple(
        {"app.mini": APP, "net.mini": NET}, [socket_checker()]
    ).run()
    warnings = run.report.warnings
    # Two sockets are opened in net.open_conn; only the one never handed
    # to net.shut leaks.  Cross-file tracking must see through both the
    # qualified call and the imported-symbol call.
    assert len(warnings) == 1
    assert warnings[0].func == "net.open_conn"


def test_file_order_permutations_link_identically():
    files = [("app.mini", APP), ("net.mini", NET)]
    baseline = load_modules(files)
    for perm in itertools.permutations(files):
        loaded = load_modules(list(perm))
        assert loaded.program == baseline.program
        assert loaded.resolution.bindings == baseline.resolution.bindings


def test_unresolved_qualified_ref_is_diagnosed_bare_is_extern():
    src = {
        "net.mini": NET,
        "app.mini": """
        import net;

        func main(x) {
            var a = net.missing(x);
            var b = externThing(x);
            return b;
        }
        """,
    }
    res = load_modules(src).resolution
    # Qualified: names a module that should have answered -> diagnostic.
    assert res.diagnostic_count(KIND_UNRESOLVED) == 1
    [diag] = [d for d in res.diagnostics if d.kind == KIND_UNRESOLVED]
    assert diag.file == "app.mini"
    assert diag.func == "main"
    # Bare unknown callee: silent extern (generator FP patterns depend
    # on extern calls), counted but not diagnosed.
    assert res.stats.unresolved_refs == 2  # net.missing + externThing


def test_ambiguous_import_diagnosed_with_deterministic_winner():
    src = {
        "a.mini": "module alpha;\nfunc pick(v) { return v; }\n",
        "b.mini": "module beta;\nfunc pick(v) { return v; }\n",
        "app.mini": """
        import alpha.pick;
        import beta.pick;

        func main(x) {
            var y = pick(x);
            return y;
        }
        """,
    }
    res = load_modules(src).resolution
    assert res.diagnostic_count(KIND_AMBIGUOUS_IMPORT) >= 1
    # Lexicographically smallest symbol id wins, deterministically.
    assert res.bindings[("app.mini", "pick")] == "alpha.pick"
    assert res.stats.ambiguous_refs >= 1


def test_local_definition_wins_over_imported_symbol():
    src = {
        "lib.mini": "module lib;\nfunc work(v) { return v; }\n",
        "app.mini": """
        import lib.work;

        func work(v) {
            return v + 1;
        }

        func main(x) {
            var y = work(x);
            return y;
        }
        """,
    }
    res = load_modules(src).resolution
    assert res.bindings[("app.mini", "work")] == "work"


def test_duplicate_symbol_across_files_is_a_link_error():
    src = {
        "a.mini": "module m;\nfunc f(v) { return v; }\n",
        "b.mini": "module m;\nfunc f(v) { return v + 1; }\n",
    }
    with pytest.raises(LinkError):
        load_modules(src)


def test_qualified_call_requires_the_alias_to_be_imported():
    # Without `import net;` the parser treats `net.shut` as a field
    # load, and `(` after it is a syntax error -- imports cannot change
    # the meaning of code that parsed before.
    with pytest.raises(ParseError):
        load_modules({
            "app.mini": """
            func main(x) {
                var y = net.shut(x);
                return y;
            }
            """,
        })


def test_artifact_json_round_trip():
    loaded = load_modules({"net.mini": NET})
    [artifact] = loaded.resolution.artifacts
    clone = FileArtifact.from_json(artifact.to_json())
    assert clone == artifact
    assert clone.digest == source_digest(NET)


def test_artifact_cache_hits_on_second_load(tmp_path):
    cache = ScopeArtifactCache(str(tmp_path))
    sources = {"app.mini": APP, "net.mini": NET}
    first = load_modules(sources, cache=cache)
    assert first.resolution.stats.artifact_cache_hits == 0
    second = load_modules(sources, cache=cache)
    assert second.resolution.stats.artifact_cache_hits == 2
    assert second.program == first.program
    # A cached artifact follows a renamed path (digest keys content).
    moved = load_modules(
        {"moved/net.mini": NET, "app.mini": APP}, cache=cache
    )
    assert moved.resolution.stats.artifact_cache_hits == 2
    assert moved.resolution.file_of["net.shut"] == "moved/net.mini"


def test_artifact_cache_counts_misses(tmp_path):
    cache = ScopeArtifactCache(str(tmp_path))
    sources = {"app.mini": APP, "net.mini": NET}
    first = load_modules(sources, cache=cache)
    assert first.resolution.stats.artifact_cache_misses == 2
    second = load_modules(sources, cache=cache)
    assert second.resolution.stats.artifact_cache_misses == 0
    assert second.resolution.stats.artifact_cache_evictions == 0


def test_artifact_cache_lru_eviction_unlinks_files(tmp_path):
    cache = ScopeArtifactCache(str(tmp_path), capacity=2)
    variants = [f"func f{i}(x) {{ return x; }}\n" for i in range(4)]
    for text in variants:
        load_modules({"one.mini": text}, cache=cache)
    assert cache.evictions == 2
    assert len(cache) == 2
    on_disk = [n for n in os.listdir(tmp_path) if n.endswith(".scope.json")]
    assert len(on_disk) == 2
    # The two most recent digests survive; the oldest two are gone.
    for text, expected in zip(variants, [False, False, True, True]):
        present = os.path.exists(
            os.path.join(tmp_path, f"{source_digest(text)}.scope.json")
        )
        assert present is expected


def test_artifact_cache_adopts_existing_directory(tmp_path):
    cache = ScopeArtifactCache(str(tmp_path))
    load_modules({"app.mini": APP, "net.mini": NET}, cache=cache)
    # A fresh cache over the same directory (daemon restart) indexes the
    # files and enforces its own, smaller bound.
    warm = ScopeArtifactCache(str(tmp_path), capacity=1)
    assert len(warm) == 1
    on_disk = [n for n in os.listdir(tmp_path) if n.endswith(".scope.json")]
    assert len(on_disk) == 1
    # The surviving entry still hits.
    digest = on_disk[0][: -len(".scope.json")]
    assert warm.get(digest) is not None
    assert warm.hits == 1


@pytest.mark.parametrize("damage", [
    lambda doc: "[" * 200_000,
    lambda doc: "[]",
    lambda doc: json.dumps({**doc, "defs": 5}),
], ids=["deep-nesting", "not-an-object", "defs-not-a-list"])
def test_artifact_cache_treats_a_hostile_file_as_a_miss(tmp_path, damage):
    cache = ScopeArtifactCache(str(tmp_path))
    sources = {"net.mini": NET}
    first = load_modules(sources, cache=cache)
    path = tmp_path / f"{source_digest(NET)}.scope.json"
    path.write_text(damage(json.loads(path.read_text())))
    restarted = ScopeArtifactCache(str(tmp_path))
    again = load_modules(sources, cache=restarted)
    assert again.resolution.stats.artifact_cache_misses == 1
    assert again.program == first.program
    assert restarted.get(source_digest(NET)) is not None  # rewritten


def test_artifact_cache_get_returns_private_copy(tmp_path):
    cache = ScopeArtifactCache(str(tmp_path))
    load_modules({"net.mini": NET}, cache=cache)
    digest = source_digest(NET)
    first = cache.get(digest)
    first.path = "mutated/by/loader.mini"
    second = cache.get(digest)
    assert second.path == "net.mini"


def _shape(program):
    """A program's functions as nested lists, site ids included."""
    return {name: _canonical(fn, 0) for name, fn in program.functions.items()}


def test_fragment_is_keyed_on_everything_the_parser_reads(tmp_path):
    cache = ScopeArtifactCache(str(tmp_path))
    # net.mini sorts after app.mini: its sites start where app's end.
    compile_source({"app.mini": APP, "net.mini": NET}, scope_cache=cache)
    base = parse_module(APP, "app.mini").next_site
    digest = source_digest(NET)
    fragment = cache.fragment(digest, "net.mini", base)
    assert fragment.module == cache.module_name(digest) == "net"
    assert fragment.next_site == parse_module(NET, "net.mini", base).next_site
    assert list(fragment.functions) == ["net.open_conn", "net.shut"]
    assert fragment.bindings == {}
    assert cache.fragment(digest, "net.mini", base + 1) is None
    assert cache.fragment(digest, "moved.mini", base) is None
    assert cache.fragment(source_digest(APP), "app.mini", 0).bindings == {
        "net.open_conn": "net.open_conn", "shut": "net.shut",
    }


def test_memoised_loads_link_the_program_a_fresh_load_does(tmp_path,
                                                          monkeypatch):
    sources = {"app.mini": APP, "net.mini": NET}
    fresh = compile_source(sources, reduce=True)
    cache = ScopeArtifactCache(str(tmp_path), capacity=2)
    compile_source(sources, reduce=True, scope_cache=cache)
    lexed = []
    monkeypatch.setattr(scopes, "tokenize",
                        lambda text: lexed.append(text) or [])
    monkeypatch.setattr(scopes, "parse_module", None)  # must not be reached
    again = compile_source(sources, reduce=True, scope_cache=cache)
    assert lexed == []
    assert again.recompiled == 0
    assert _shape(again.program) == _shape(fresh.program)
    assert again.resolution.site_ranges == fresh.resolution.site_ranges
    assert again.icfet.by_cid.keys() == fresh.icfet.by_cid.keys()


def test_artifact_on_disk_that_disagrees_with_its_file_is_rebuilt(tmp_path):
    """A restarted cache reads artifacts from disk; one that no longer
    says what the file defines must not decide the resolution."""
    sources = {"app.mini": APP, "net.mini": NET}
    load_modules(sources, cache=ScopeArtifactCache(str(tmp_path)))
    path = tmp_path / f"{source_digest(NET)}.scope.json"
    doc = json.loads(path.read_text())
    doc["defs"] = [["elsewhere", 2, 1]]
    path.write_text(json.dumps(doc))
    restarted = ScopeArtifactCache(str(tmp_path))
    again = load_modules(sources, cache=restarted)
    fresh = load_modules(sources)
    assert again.resolution.stats.artifact_cache_misses == 1
    assert again.resolution.file_of == fresh.resolution.file_of
    assert again.resolution.bindings == fresh.resolution.bindings
    assert json.loads(path.read_text())["defs"] != doc["defs"]  # rewritten
