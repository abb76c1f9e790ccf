"""Unit tests for the program-graph model and clone enumeration."""

import pytest

from repro.analysis.frontend import compile_source
from repro.graph.cloning import (
    CloneExplosionError,
    enumerate_clones,
    root_functions,
)
from repro.graph.model import LabelTable, ProgramGraph, VertexTable


# -- intern tables -------------------------------------------------------------


def test_vertex_table_interns_dense_ids():
    table = VertexTable()
    a = table.intern(("var", (), "f", "x", 0))
    b = table.intern(("var", (), "f", "y", 0))
    assert (a, b) == (0, 1)
    assert table.intern(("var", (), "f", "x", 0)) == a
    assert table.lookup(a) == ("var", (), "f", "x", 0)
    assert len(table) == 2


def test_label_table_get_without_intern():
    table = LabelTable()
    assert table.get(("assign",)) is None
    table.intern(("assign",))
    assert table.get(("assign",)) == 0
    assert ("assign",) in table


def test_program_graph_add_edge_dedupes():
    graph = ProgramGraph()
    enc = (("I", "f", 0, 0),)
    assert graph.add_edge(0, 1, ("assign",), enc)
    assert not graph.add_edge(0, 1, ("assign",), enc)
    assert graph.edge_count() == 1


def test_program_graph_multiple_encodings_counted():
    graph = ProgramGraph()
    graph.add_edge(0, 1, ("assign",), (("I", "f", 0, 0),))
    graph.add_edge(0, 1, ("assign",), (("I", "f", 0, 1),))
    assert graph.edge_count() == 2
    assert graph.distinct_edge_count() == 1


def test_program_graph_meta_attached():
    graph = ProgramGraph()
    graph.add_edge(0, 1, ("cf",), (("I", "f", 0, 0),), meta=((0, 5, "close"),))
    label_id = graph.labels.get(("cf",))
    assert graph.meta[(0, 1, label_id)] == ((0, 5, "close"),)


def test_iter_edges_yields_all():
    graph = ProgramGraph()
    graph.add_edge(0, 1, ("a",), (("I", "f", 0, 0),))
    graph.add_edge(1, 2, ("b",), (("I", "f", 0, 1),))
    assert len(list(graph.iter_edges())) == 2


# -- clone enumeration -------------------------------------------------------------


def compiled_of(source):
    return compile_source(source)


def test_root_functions_are_uncalled_plus_main():
    compiled = compiled_of(
        """
        func helper() { }
        func main() { helper(); }
        func standalone() { }
        """
    )
    roots = root_functions(compiled.program, compiled.callgraph)
    assert roots == ["main", "standalone"]


MAIN_ON_A_CYCLE = """
func main(x) {
    var f = new FileWriter();
    f.write(x);
    if (x > 3) {
        helper(x);
    }
    return;
}
func helper(y) {
    main(y - 1);
    return;
}
"""


def test_a_modules_main_is_a_root_like_a_bare_main():
    """Linking renames ``main`` to ``<module>.main``; on a call cycle
    nobody else is a root, and the program went unanalysed."""
    from repro.analysis.pipeline import Grapple
    from repro.checkers.checker import default_checkers

    fsms = [c.fsm for c in default_checkers()]
    sources = {"app.mini": "module app;" + MAIN_ON_A_CYCLE}
    single = Grapple(MAIN_ON_A_CYCLE, fsms).run()
    linked = Grapple(sources, fsms).run()
    # A batch run lets the frontend go after the alias graph: read the
    # roots off a compile of the same sources.
    frontend = compile_source(sources, reduce=True, roots=())
    assert root_functions(frontend.program, frontend.callgraph) \
        == list(linked.root_table) == ["app.main"]
    assert [w.describe().replace("app.main", "main")
            for w in linked.report.warnings] \
        == [w.describe() for w in single.report.warnings]
    assert [w.checker for w in single.report.warnings] == ["io"]


def test_every_clone_knows_the_root_of_its_tree():
    compiled = compiled_of(
        """
        func leaf() { }
        func mid() { leaf(); }
        func main() { mid(); leaf(); }
        func other() { mid(); }
        """
    )
    forest = compiled.forest
    assert {c.root for c in forest.clones.values()} == {"main", "other"}
    for (ctx, func), clone in forest.clones.items():
        if not ctx:
            assert clone.root == func
        for _record, child in clone.calls:
            assert forest.clones[child].root == clone.root
    only = enumerate_clones(
        compiled.program, compiled.icfet, compiled.callgraph, roots=["other"]
    )
    assert list(only.clones) == [
        key for key, clone in forest.clones.items() if clone.root == "other"
    ]


def test_each_call_site_gets_a_clone():
    compiled = compiled_of(
        """
        func leaf() { }
        func mid() { leaf(); leaf(); }
        func main() { mid(); }
        """
    )
    forest = compiled.forest
    leaf_clones = [c for (ctx, f), c in forest.clones.items() if f == "leaf"]
    assert len(leaf_clones) == 2
    # Contexts are distinct cid chains of depth 2.
    contexts = {c.ctx for c in leaf_clones}
    assert len(contexts) == 2
    assert all(len(ctx) == 2 for ctx in contexts)


def test_recursion_does_not_extend_context():
    compiled = compiled_of(
        """
        func ping(n) { pong(n - 1); }
        func pong(n) { ping(n - 1); }
        func main() { ping(3); }
        """
    )
    forest = compiled.forest
    ping_clones = [c for (ctx, f), c in forest.clones.items() if f == "ping"]
    pong_clones = [c for (ctx, f), c in forest.clones.items() if f == "pong"]
    # One clone each: the SCC is collapsed into the entry context.
    assert len(ping_clones) == 1 and len(pong_clones) == 1


def test_depth_cap_prunes_calls():
    source = "\n".join(
        f"func f{i}(x) {{ f{i+1}(x); }}" for i in range(10)
    ) + "\nfunc f10(x) { }\nfunc main() { f0(1); }"
    compiled = compile_source(source, max_clone_depth=3)
    forest = compiled.forest
    depths = {len(ctx) for (ctx, f) in forest.clones}
    assert max(depths) <= 3


def test_clone_explosion_raises():
    # Full binary call tree of depth 14 = 2^14 clones > max_clones.
    lines = []
    for i in range(14):
        lines.append(
            f"func g{i}(x) {{ g{i+1}(x); g{i+1}(x + 1); }}"
        )
    lines.append("func g14(x) { }")
    lines.append("func main() { g0(1); }")
    with pytest.raises(CloneExplosionError):
        compile_source("\n".join(lines), max_clones=1000)
