"""Cross-file name resolution (DESIGN.md §15)."""

import itertools

import pytest

from repro.analysis.frontend import compile_source
from repro.analysis.pipeline import Grapple
from repro.checkers import Checker
from repro.graph.cloning import _canonical
from repro.lang.parser import ParseError, parse_module, parse_program
from repro.sa import scopes
from repro.sa.scopes import (
    KIND_AMBIGUOUS_IMPORT,
    KIND_UNRESOLVED,
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


LINKED = """
func helper(v) {
    return v + 1;
}

func main(x) {
    var y = helper(x);
    helper(y);
    return y;
}
"""


def _main_calls(functions, name="main"):
    body = functions[name].body
    return [body[0].value, body[1].call]


def test_identity_link_keeps_the_parsed_calls():
    """A header-less file at shift 0, every binding a name to itself,
    links as parsed: the very ``Call`` objects the parser made."""
    mf = parse_module(LINKED, path="prog.mini")
    parsed = _main_calls(mf.functions)
    functions = scopes.link_file(mf, {"helper": "helper"})
    assert all(a is b for a, b in zip(_main_calls(functions), parsed))
    assert [call.site for call in parsed] == [0, 1]


def test_shifted_or_qualified_link_still_rewrites():
    """A shift moves every site; a qualified binding renames the call."""
    mf = parse_module(LINKED, path="prog.mini")
    base = mf.next_site
    shifted = _main_calls(scopes.link_file(mf, {"helper": "helper"}, 5))
    assert [(c.func, c.site) for c in shifted] == [("helper", 5), ("helper", 6)]
    assert mf.next_site == base + 5

    mf = parse_module(LINKED, path="prog.mini")
    parsed = _main_calls(mf.functions)
    renamed = _main_calls(scopes.link_file(mf, {"helper": "lib.helper"}))
    assert [(c.func, c.site) for c in renamed] == [
        ("lib.helper", 0), ("lib.helper", 1)
    ]
    assert all(a is not b for a, b in zip(renamed, parsed))


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
        {"app.mini": APP, "net.mini": NET}, [Checker.by_name("socket").fsm]
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


def test_import_from_the_second_file_of_a_split_module_resolves():
    """``import m.g;`` is checked against every file declaring ``m``,
    as the bare ``g`` it enables is bound: not only the first file."""
    src = {
        "a.mini": "module m;\nfunc f(v) { return v; }\n",
        "b.mini": "module m;\nfunc g(v) { return v; }\n",
        "c.mini": "import m.g;\nfunc main(x) { var y = g(x); return y; }\n",
    }
    res = load_modules(src).resolution
    assert res.bindings[("c.mini", "g")] == "m.g"
    assert res.diagnostic_count(KIND_UNRESOLVED) == 0


SPLIT_M = {
    "a.mini": "module m;\nfunc f(v) { return v; }\n",
    "b.mini": "module m;\nfunc g(v) { return v; }\n",
}
M_FG = {"m.mini": "module m;\nfunc f(v) { return v; }\n"
                  "func g(v) { return v; }\n"}


@pytest.mark.parametrize("sources, bindings, diagnostics, counters", [
    pytest.param(
        {**SPLIT_M, "c.mini": "import m;\nimport m.g;\nfunc main(x) {"
         " var a = m.f(x); var b = g(x); var c = m.g(x); return c; }\n"},
        {("c.mini", "m.f"): "m.f", ("c.mini", "g"): "m.g",
         ("c.mini", "m.g"): "m.g"},
        [(KIND_AMBIGUOUS_IMPORT, "m", "b.mini")],
        (3, 0, 0), id="split-module",
    ),
    pytest.param(
        {"r.mini": "func m(v) { return v; }\n",
         "a.mini": "module m;\nfunc f(v) { return v; }\n",
         "c.mini": "module c;\nimport m;\nfunc main(x) {"
         " var b = m(x); var c = m.f(x); return c; }\n"},
        {("c.mini", "m.f"): "m.f"},
        [],
        (1, 1, 0), id="root-func-is-no-module",
    ),
    pytest.param(
        {"m.mini": "module m;\nimport m.g;\nfunc g(v) { return v; }\n"
         "func f(x) { var y = g(x); return y; }\n"},
        {("m.mini", "g"): "m.g"},
        [(KIND_AMBIGUOUS_IMPORT, "g", "m.mini")],
        (1, 0, 0), id="self-import",
    ),
    pytest.param(
        {**M_FG, "c.mini": "import m;\nfunc main(x) {"
         " var b = g(x); var c = m.f(x); return c; }\n"},
        {("c.mini", "m.f"): "m.f"},
        [],
        (1, 1, 0), id="whole-module-import-leaves-bare-extern",
    ),
    pytest.param(
        {**M_FG, "c.mini": "import m.g;\nfunc main(x) {"
         " var b = g(x); var c = m.f(x); return c; }\n"},
        {("c.mini", "g"): "m.g", ("c.mini", "m.f"): "m.f"},
        [],
        (2, 0, 0), id="symbol-import-qualifies",
    ),
])
def test_lookup_rules(sources, bindings, diagnostics, counters):
    """What each lookup rule binds, diagnoses and counts as
    (resolved, extern/unresolved, ambiguous)."""
    res = load_modules(sources).resolution
    assert res.bindings == bindings
    assert [(d.kind, d.subject, d.file) for d in res.diagnostics] \
        == diagnostics
    stats = res.stats
    assert (stats.scope_resolutions, stats.unresolved_refs,
            stats.ambiguous_refs) == counters


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


def test_artifact_cache_hits_on_second_load():
    cache = ScopeArtifactCache()
    sources = {"app.mini": APP, "net.mini": NET}
    first = load_modules(sources, cache=cache)
    assert first.resolution.stats.artifact_cache_hits == 0
    second = load_modules(sources, cache=cache)
    assert second.resolution.stats.artifact_cache_hits == 2
    assert second.program == first.program
    # Entries are per path: a renamed file is a miss.
    moved = load_modules(
        {"moved/net.mini": NET, "app.mini": APP}, cache=cache
    )
    assert moved.resolution.stats.artifact_cache_hits == 1
    assert moved.resolution.stats.artifact_cache_misses == 1
    assert moved.resolution.file_of["net.shut"] == "moved/net.mini"


def test_artifact_cache_counts_misses():
    cache = ScopeArtifactCache()
    sources = {"app.mini": APP, "net.mini": NET}
    first = load_modules(sources, cache=cache)
    assert first.resolution.stats.artifact_cache_misses == 2
    second = load_modules(sources, cache=cache)
    assert second.resolution.stats.artifact_cache_misses == 0
    assert second.resolution.stats.artifact_cache_evictions == 0


def test_artifact_cache_lru_eviction_unlinks_files():
    """The cache holds at most ``capacity`` paths, evicting the least
    recently used; a new content at a held path replaces its entry."""
    cache = ScopeArtifactCache(capacity=2)
    variants = [f"func f{i}(x) {{ return x; }}\n" for i in range(4)]
    for i, text in enumerate(variants):
        load_modules({f"f{i}.mini": text}, cache=cache)
    assert cache.evictions == 2
    assert len(cache) == 2
    # The two most recent paths survive; the oldest two are gone.
    for i, expected in enumerate([False, False, True, True]):
        held = cache.get(f"f{i}.mini", source_digest(variants[i]))
        assert (held is not None) is expected
    edited = load_modules({"f3.mini": variants[0]}, cache=cache)
    assert edited.resolution.stats.artifact_cache_misses == 1
    assert cache.evictions == 2
    assert len(cache) == 2
    assert cache.get("f3.mini", source_digest(variants[3])) is None


def _shape(program):
    """A program's functions as nested lists, site ids included."""
    return {name: _canonical(fn, 0) for name, fn in program.functions.items()}


def test_fragment_is_keyed_on_everything_the_parser_reads():
    cache = ScopeArtifactCache()
    # net.mini sorts after app.mini: its sites start where app's end.
    compile_source({"app.mini": APP, "net.mini": NET}, scope_cache=cache)
    base = parse_module(APP, "app.mini").next_site
    digest = source_digest(NET)
    fragment = cache.fragment("net.mini", digest, base)
    assert fragment.module == cache.module_name("net.mini", digest) == "net"
    assert fragment.next_site == parse_module(NET, "net.mini", base).next_site
    assert list(fragment.functions) == ["net.open_conn", "net.shut"]
    assert fragment.bindings == {}
    assert cache.fragment("net.mini", digest, base + 1) is None
    assert cache.fragment("moved.mini", digest, base) is None
    assert cache.fragment("app.mini", source_digest(APP), 0).bindings == {
        "net.open_conn": "net.open_conn", "shut": "net.shut",
    }


def test_memoised_loads_link_the_program_a_fresh_load_does(monkeypatch):
    sources = {"app.mini": APP, "net.mini": NET}
    fresh = compile_source(sources, reduce=True)
    cache = ScopeArtifactCache(capacity=2)
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
