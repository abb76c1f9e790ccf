"""Compiled per-file fragments (DESIGN.md §16, "Compiled functions are
reused").

A compile handed a :class:`~repro.sa.scopes.ScopeArtifactCache` runs the
passes only over the functions no fragment can stand in for.  Pinned
here: the key is complete -- flipping one cross-file input recompiles
exactly the functions that read it, and the result is what a cold
compile gives -- and the whole-program facts computed from summaries
equal the ones computed from bodies.
"""

import pytest

from repro.analysis.frontend import compile_source
from repro.graph.cloning import _canonical
from repro.lang import ast
from repro.lang.parser import parse_module, parse_program
from repro.lang.transform import (
    _direct_call,
    compute_may_throw,
    normalize_calls,
    unroll_loops,
)
from repro.sa.scopes import ScopeArtifactCache, source_digest
from repro.workloads.subjects import build_subject

# Canonical order app, ext, lib: an edit to a later file moves no site
# base of an earlier one.
BASE = {
    "app.mini": """module app;
import lib;
import ext;
func f(a) {
    var r = lib.g(a);
    return r;
}
func quiet(a) {
    return a;
}
func uses(a) {
    var n = lib.pass(a);
    return;
}
func h(a) {
    var q = ext.k(a);
    return q;
}
""",
    "ext.mini": """module ext;
import lib;
func k(v) {
    var w = lib.g(v);
    return w;
}
""",
    "lib.mini": """module lib;
func g(x) {
    var t = x + 1;
    return t;
}
func pass(p) {
    return p;
}
func twice(x) {
    var y = g(x);
    return y;
}
""",
}

LIB = {"lib.g", "lib.pass", "lib.twice"}


def _shape(compiled):
    icfet = compiled.icfet
    return (
        [(n, _canonical(fn, 0)) for n, fn in compiled.program.functions.items()],
        [(cid, r.rid, r.caller, r.callee, r.node_id, repr(r.equations),
          r.result_symbol, r.thrown_symbol)
         for cid, r in sorted(icfet.by_cid.items())],
        {n: sorted(v) for n, v in compiled.info.object_vars.items()},
    )


def _recompiled(before, after):
    """Functions of ``after`` a pass ran over again: neither their body
    nor their CFET is the object ``before`` compiled."""
    old_fns, old_cfets = before.program.functions, before.icfet.cfets
    return {
        name for name, fn in after.program.functions.items()
        if fn is not old_fns.get(name)
        or after.icfet.cfets[name] is not old_cfets.get(name)
    }


def _flip(after):
    """Compile BASE, then ``after`` through the same cache; check the
    second compile against a cold one and return what it recompiled."""
    cache = ScopeArtifactCache()
    before = compile_source(BASE, reduce=True, scope_cache=cache)
    assert before.recompiled == len(before.program.functions)
    again = compile_source(after, reduce=True, scope_cache=cache)
    assert _shape(again) == _shape(compile_source(after, reduce=True))
    moved = _recompiled(before, again)
    assert again.recompiled == len(moved)
    return moved, before, again


def _edit(path, old, new):
    assert old in BASE[path]
    return {**BASE, path: BASE[path].replace(old, new, 1)}


def test_nothing_moved_nothing_recompiled():
    moved, _, again = _flip(dict(BASE))
    assert moved == set() and again.recompiled == 0


def test_a_callees_may_throw_bit():
    """``lib.g`` starts throwing: its callers lower its calls with an
    exceptional branch, and ``ext.k``, now throwing too, moves ``h``."""
    moved, _, _ = _flip(_edit(
        "lib.mini", "var t = x + 1;",
        "var t = x + 1;\n    if (x > 5) {\n        var e = new Exc();\n"
        "        throw e;\n    }",
    ))
    assert moved == LIB | {"app.f", "ext.k", "app.h"}


def test_a_callees_arity():
    """The formals a call's parameter-passing equations bind."""
    moved, _, _ = _flip(_edit(
        "lib.mini", "func g(x) {\n    var t = x + 1;",
        "func g(x, z) {\n    var t = x + z;",
    ))
    assert moved == LIB | {"app.f", "ext.k"}


def test_a_bindings_target():
    """``ext.k`` goes: app's call to it now links to nothing, and the
    whole file is linked again."""
    moved, _, _ = _flip(_edit("ext.mini", "func k(v)", "func k2(v)"))
    assert moved == {"app.f", "app.quiet", "app.uses", "app.h", "ext.k2"}


def test_an_object_vars_slice():
    """A caller in a new file hands ``lib.pass`` an object: its slice
    moves, and through its result so does the caller's in ``app``."""
    after = {**BASE, "zfar.mini": (
        "module zfar;\nimport lib;\nfunc hands(a) {\n"
        "    var o = new Plain();\n    var r = lib.pass(o);\n    return;\n}\n"
    )}
    moved, before, again = _flip(after)
    slices = {
        name for name, obj in again.info.object_vars.items()
        if obj != before.info.object_vars.get(name)
    }
    assert {"lib.pass", "app.uses"} <= slices
    assert moved == slices | {"zfar.hands"}


def test_a_site_base():
    """An allocation in ``ext`` moves the site base of ``lib`` after it."""
    moved, _, _ = _flip(_edit(
        "ext.mini", "var w = lib.g(v);", "var o = new Plain();\n    var w = lib.g(v);",
    ))
    assert moved == {"ext.k"} | LIB


def test_a_first_cid():
    """A branch ahead of ``ext.k``'s call doubles its call records, but
    adds no site: ``lib.twice``, the one later function with a call,
    rebuilds its CFET from its kept body."""
    moved, before, again = _flip(_edit(
        "ext.mini", "var w = lib.g(v);",
        "if (v > 0) {\n        v = 1;\n    }\n    var w = lib.g(v);",
    ))
    assert moved == {"ext.k", "lib.twice"}
    twice = "lib.twice"
    assert again.program.functions[twice] is before.program.functions[twice]


def test_another_unroll_or_reduce_recompiles_everything():
    cache = ScopeArtifactCache()
    first = compile_source(BASE, reduce=True, scope_cache=cache)
    for unroll, reduce in ((3, True), (2, False)):
        again = compile_source(BASE, unroll=unroll, reduce=reduce,
                               scope_cache=cache)
        assert again.recompiled == len(first.program.functions)
        assert _shape(again) == _shape(
            compile_source(BASE, unroll=unroll, reduce=reduce))


@pytest.mark.parametrize("name", ["zookeeper", "hadoop", "hbase", "hdfs"])
def test_may_throw_from_summaries_is_the_whole_program_fixpoint(name):
    """``compute_may_throw`` combines per-function escape summaries; it
    must be the fixpoint of the whole-program body walk it replaced,
    kept here as the oracle."""
    program = parse_program(build_subject(name, scale=1).source)
    normalize_calls(program)
    unroll_loops(program, 2)

    def escapes(body, depth, may_throw):
        for stmt in body:
            if isinstance(stmt, ast.Throw) and depth == 0:
                return True
            if isinstance(stmt, ast.TryCatch):
                if escapes(stmt.try_body, depth + 1, may_throw) \
                        or escapes(stmt.catch_body, depth, may_throw):
                    return True
            elif isinstance(stmt, ast.If):
                if escapes(stmt.then_body, depth, may_throw) \
                        or escapes(stmt.else_body, depth, may_throw):
                    return True
            elif depth == 0:
                call = _direct_call(stmt)
                if call is not None and call.func in may_throw:
                    return True
        return False

    oracle: set = set()
    changed = True
    while changed:
        changed = False
        for fname, fn in program.functions.items():
            if fname not in oracle and escapes(fn.body, 0, oracle):
                oracle.add(fname)
                changed = True
    got = compute_may_throw(program)
    assert got == oracle and got


def test_fragment_names_the_files_functions_in_file_order():
    cache = ScopeArtifactCache()
    compile_source(BASE, reduce=True, scope_cache=cache)
    base = parse_module(BASE["app.mini"], "app.mini").next_site
    base = parse_module(BASE["ext.mini"], "ext.mini", base).next_site
    fragment = cache.fragment("lib.mini", source_digest(BASE["lib.mini"]), base)
    assert list(fragment.functions) == ["lib.g", "lib.pass", "lib.twice"]
    assert fragment.config == (2, True)
    assert fragment.functions["lib.twice"].escapes.callees == {"lib.g"}
