"""Unit tests for the dataflow program-graph generator."""

from repro.analysis.frontend import compile_source
from repro.checkers import Checker
from repro.graph.alias_graph import build_alias_graph
from repro.graph.dataflow_graph import build_dataflow_graph


def dataflow_of(source):
    compiled = compile_source(source)
    io = Checker.by_name("io").fsm
    fsms = {t: io for t in io.types}
    alias = build_alias_graph(
        compiled.program,
        compiled.icfet,
        compiled.callgraph,
        compiled.info,
        compiled.forest,
        set(fsms),
    )
    return build_dataflow_graph(compiled.icfet, alias, fsms), alias


def keys(result):
    return [key for _id, key in result.graph.vertices.items()]


def test_seed_edge_carries_initial_state():
    result, _ = dataflow_of(
        "func main() { var f = new FileWriter(); f.close(); }"
    )
    labels = [
        result.graph.labels.lookup(lid)
        for _s, _d, lid, _e in result.graph.iter_edges()
    ]
    assert ("st", "io", "Open") in labels


def test_seed_encoding_spans_root_to_alloc():
    result, _ = dataflow_of(
        """
        func main(x) {
            if (x > 0) {
                var f = new FileWriter();
                f.close();
            }
        }
        """
    )
    seeds = [
        (src, enc)
        for src, _d, lid, enc in result.graph.iter_edges()
        if result.graph.labels.lookup(lid)[0] == "st"
    ]
    assert len(seeds) == 1
    _, encoding = seeds[0]
    assert encoding == (("I", "main", 0, 2),)


def test_exit_vertex_for_root_clone():
    result, _ = dataflow_of("func main() { var f = new FileWriter(); }")
    assert len(result.exit_vertices) == 1


def test_events_attached_to_cf_edges():
    result, _ = dataflow_of(
        "func main() { var f = new FileWriter(); f.write(1); f.close(); }"
    )
    all_events = [ev for events in result.events_meta.values() for ev in events]
    methods = {m for _i, _v, m in all_events}
    assert methods == {"write", "close"}


def test_irrelevant_events_not_recorded():
    result, _ = dataflow_of(
        "func main() { var f = new FileWriter(); f.frobnicate(1); f.close(); }"
    )
    all_events = [ev for events in result.events_meta.values() for ev in events]
    methods = {m for _i, _v, m in all_events}
    assert "frobnicate" not in methods


def test_node_split_at_call_sites():
    """A call in the middle of a node produces segment vertices."""
    result, _ = dataflow_of(
        """
        func helper(v) { return v; }
        func main() {
            var f = new FileWriter();
            f.write(1);
            helper(2);
            f.close();
        }
        """
    )
    pt_keys = [k for k in keys(result) if k[0] == "pt"]
    segments = {(k[3], k[4]) for k in pt_keys if k[2] == "main"}
    # main's single node must have segment 0 (before helper) and 1 (after).
    assert (0, 0) in segments and (0, 1) in segments


def test_call_and_return_cf_edges():
    result, _ = dataflow_of(
        """
        func helper(v) { return v; }
        func main() {
            var f = new FileWriter();
            helper(1);
            f.close();
        }
        """
    )
    encodings = [
        enc for _s, _d, lid, enc in result.graph.iter_edges()
        if result.graph.labels.lookup(lid) == ("cf",)
    ]
    tags = {e[0][0] for e in encodings}
    assert "C" in tags and "R" in tags and "I" in tags


def test_extern_call_stepped_over():
    result, _ = dataflow_of(
        """
        func main() {
            var f = new FileWriter();
            externlog(1);
            f.close();
        }
        """
    )
    pt_keys = [k for k in keys(result) if k[0] == "pt" and k[2] == "main"]
    # Both segments exist and are connected (no dead end at the call).
    assert {k[4] for k in pt_keys} == {0, 1}


def test_objects_map_links_fsm_and_alias_vertex():
    result, alias = dataflow_of(
        "func main() { var f = new FileWriter(); f.close(); }"
    )
    assert len(result.objects) == 1
    fsm, alias_obj, tracked = next(iter(result.objects.values()))
    assert fsm.name == "io"
    assert tracked.type_name == "FileWriter"
    assert alias.graph.vertices.lookup(alias_obj)[0] == "obj"
