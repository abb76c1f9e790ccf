"""Tests for the context-sensitive alias query API (paper §2.1)."""

import pytest

from repro.analysis.alias import run_alias_phase
from repro.analysis.frontend import compile_source


@pytest.fixture()
def two_contexts():
    """use() is inlined at two call sites with different objects."""
    source = """
    func use(h) {
        h.touch();
        return;
    }
    func main() {
        var a = new FileWriter();
        var b = new Socket();
        use(a);
        use(b);
        return;
    }
    """
    compiled = compile_source(source)
    return compiled, run_alias_phase(compiled)


def test_points_to_union_over_contexts(two_contexts):
    _compiled, alias = two_contexts
    sites = {site for site, _ctx in alias.points_to("use", "h")}
    assert len(sites) == 2  # both allocation sites reach the formal


def test_points_to_single_context_is_precise(two_contexts):
    """Under one particular calling context, h points to exactly one
    object -- the query the paper says summary-based designs cannot
    answer."""
    _compiled, alias = two_contexts
    answers = alias.points_to("use", "h")
    contexts = {ctx for _site, ctx in answers}
    assert len(contexts) == 2
    for ctx in contexts:
        scoped = alias.points_to("use", "h", ctx=ctx)
        assert len(scoped) == 1, scoped


def test_points_to_unknown_variable_empty(two_contexts):
    _compiled, alias = two_contexts
    assert alias.points_to("use", "nonexistent") == set()


def test_alias_pairs_include_copy(two_contexts):
    source = """
    func main() {
        var f = new FileWriter();
        var g = f;
        g.close();
        return;
    }
    """
    compiled = compile_source(source)
    alias = run_alias_phase(compiled)
    # f and g alias: both point to the one allocation site.
    sites = alias.points_to("main", "f")
    assert len(sites) == 1
    assert alias.points_to("main", "g") == sites


def test_flows_to_index_keyed_by_tracked_objects(two_contexts):
    _compiled, alias = two_contexts
    assert alias.flows_to  # non-empty
    vertices = alias.graph_result.graph.vertices
    for (obj, var), encodings in alias.flows_to.items():
        assert vertices.lookup(obj)[0] == "obj"
        assert vertices.lookup(var)[0] == "var"
        assert encodings  # at least one witness encoding each
