"""Unit tests for the CFG builder, call graph, and object-var inference."""

import pytest

from repro.lang import ast
from repro.lang.callgraph import build_call_graph, call_sites
from repro.lang.cfg import build_cfg
from repro.lang.parser import parse_program
from repro.lang.summary import summarize_program, type_facts_of
from repro.lang.transform import lower_exceptions, normalize_calls, unroll_loops
from repro.lang.types import infer_object_vars


def core(source, k=2):
    program = parse_program(source)
    normalize_calls(program)
    unroll_loops(program, k)
    lower_exceptions(program)
    return program


# -- CFG -----------------------------------------------------------------------


def test_cfg_straight_line_single_block():
    program = core("func main() { var x = 1; x = x + 1; }")
    cfg = build_cfg(program.entry)
    assert len(cfg.blocks) == 1
    assert cfg.blocks[0].is_return


def test_cfg_if_else_creates_diamond():
    program = core(
        "func main() { if (x > 0) { a(); } else { b(); } c(); }"
    )
    cfg = build_cfg(program.entry)
    entry = cfg.blocks[cfg.entry]
    assert entry.branch_cond is not None
    assert len(entry.successors) == 2
    # both arms join
    t = cfg.blocks[entry.true_target]
    f = cfg.blocks[entry.false_target]
    assert t.goto_target == f.goto_target


def test_cfg_return_in_branch():
    program = core("func main() { if (x > 0) { return; } a(); }")
    cfg = build_cfg(program.entry)
    returns = cfg.exit_blocks
    assert len(returns) == 2


def test_cfg_rejects_surface_statements():
    program = parse_program("func main() { while (x > 0) { } }")
    with pytest.raises(ValueError):
        build_cfg(program.entry)


def test_cfg_edge_count():
    program = core("func main() { if (a > 0) { } b(); }")
    cfg = build_cfg(program.entry)
    assert cfg.edge_count() >= 2


# -- call graph -------------------------------------------------------------------


def test_call_sites_found_in_nested_positions():
    program = parse_program(
        "func main() { if (g() > 0) { var x = f(h()); } }"
    )
    names = sorted(c.func for c in call_sites(program.entry))
    assert names == ["f", "g", "h"]


def test_call_graph_edges():
    program = core(
        """
        func a() { b(); }
        func b() { c(); }
        func c() { }
        func main() { a(); }
        """
    )
    cg = build_call_graph(summarize_program(program))
    assert cg.callees("main") == {"a"}
    assert cg.callees("a") == {"b"}


def test_call_graph_bottom_up_order():
    program = core(
        """
        func leaf() { }
        func mid() { leaf(); }
        func main() { mid(); }
        """
    )
    cg = build_call_graph(summarize_program(program))
    order = cg.bottom_up_functions()
    assert order.index("leaf") < order.index("mid") < order.index("main")


def test_call_graph_scc_recursion_collapsed():
    program = core(
        """
        func even(n) { odd(n - 1); }
        func odd(n) { even(n - 1); }
        func main() { even(4); }
        """
    )
    cg = build_call_graph(summarize_program(program))
    assert cg.scc_of["even"] == cg.scc_of["odd"]
    assert cg.is_recursive_edge("even", "odd")
    assert not cg.is_recursive_edge("main", "even")


def test_call_graph_ignores_extern_calls():
    program = core("func main() { println(1); }")
    cg = build_call_graph(summarize_program(program))
    assert cg.callees("main") == set()


# -- object-var inference -----------------------------------------------------------


def _objects(program):
    return infer_object_vars(type_facts_of(summarize_program(program)))


def test_object_vars_from_new_and_copy():
    program = core(
        "func main() { var a = new File(); var b = a; var n = 3; }"
    )
    info = _objects(program)
    assert info.is_object_var("main", "a")
    assert info.is_object_var("main", "b")
    assert not info.is_object_var("main", "n")


def test_object_vars_through_fields():
    program = core("func main() { box.item = a; var c = box.item; }")
    info = _objects(program)
    for name in ("box", "a", "c"):
        assert info.is_object_var("main", name)


def test_object_vars_through_params():
    program = core(
        """
        func use(f) { f.close(); }
        func main() { var a = new File(); use(a); }
        """
    )
    info = _objects(program)
    assert info.is_object_var("use", "f")
    assert info.is_object_var("main", "a")


def test_object_vars_through_returns():
    program = core(
        """
        func make() { var f = new File(); return f; }
        func main() { var g = make(); }
        """
    )
    info = _objects(program)
    assert "make" in info.returns_object
    assert info.is_object_var("main", "g")


def test_site_types_recorded():
    program = core("func main() { var a = new Socket(); }")
    info = _objects(program)
    assert "Socket" in info.site_types.values()


def test_event_base_is_object():
    program = core("func main() { conn.open(); }")
    info = _objects(program)
    assert info.is_object_var("main", "conn")


def test_object_var_reaches_a_callee_defined_before_its_caller():
    """The fixpoint is the least one whatever the definition order: the
    caller's argument becomes an object after the call, and only the
    callee, defined first, copies the formal on (a round-based solver
    that stopped once no caller grew missed ``q``)."""
    program = core(
        """
        func g(p) { var q = p; return; }
        func main() { g(a); a = new File(); }
        """
    )
    info = _objects(program)
    assert info.object_vars["g"] == {"p", "q"}
    assert info.is_object_var("main", "a")


def test_site_type_of_an_argument_needs_the_callee_formal():
    # Surface form: normalisation would hoist the allocations.
    program = parse_program(
        """
        func one(p) { return; }
        func main() { one(new File(), new Socket()); ext(new Lock()); }
        """
    )
    assert sorted(_objects(program).site_types.values()) == ["File"]


def _random_program(seed: int, n: int = 40):
    import random

    rng = random.Random(seed)
    names = [f"f{i}" for i in range(n)]
    rng.shuffle(names)
    lines = []
    for name in names:
        callees = rng.sample(names, rng.randint(0, 3))
        body = " ".join(f"{callee}();" for callee in callees)
        lines.append(f"func {name}() {{ {body} }}")
    return core("\n".join(lines))


def test_call_graph_sccs_match_networkx():
    """The stdlib Tarjan must find networkx's SCCs and emit them in a
    valid bottom-up order (every callee's SCC no later than its
    caller's), identically run over run."""
    nx = pytest.importorskip("networkx")
    for seed in range(20):
        program = _random_program(seed)
        cg = build_call_graph(summarize_program(program))
        graph = nx.DiGraph()
        graph.add_nodes_from(program.functions)
        for caller, callees in cg.edges.items():
            graph.add_edges_from((caller, callee) for callee in callees)
        want = {frozenset(scc) for scc in nx.strongly_connected_components(graph)}
        assert set(cg.scc_order) == want
        assert len(cg.scc_order) == len(want)
        assert all(cg.scc_of[f] in want and f in cg.scc_of[f] for f in program.functions)
        position = {scc: at for at, scc in enumerate(cg.scc_order)}
        for caller, callees in cg.edges.items():
            for callee in callees:
                assert position[cg.scc_of[callee]] <= position[cg.scc_of[caller]]
        again = build_call_graph(summarize_program(_random_program(seed)))
        assert again.scc_order == cg.scc_order
        assert again.bottom_up_functions() == cg.bottom_up_functions()


def test_call_graph_survives_call_chains_deeper_than_the_stack():
    import sys

    depth = sys.getrecursionlimit() + 200
    lines = [f"func f{i}() {{ f{i + 1}(); }}" for i in range(depth)]
    lines.append(f"func f{depth}() {{ }}")
    cg = build_call_graph(summarize_program(core("\n".join(lines))))
    order = cg.bottom_up_functions()
    assert order[0] == f"f{depth}" and order[-1] == "f0"
