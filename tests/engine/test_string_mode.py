"""Focused tests for the string-constraint engine (Table 5 baseline)."""

import pytest

from repro.baselines.string_constraints import StringConstraintEngine
from repro.cfet import encoding as enc
from repro.cfet.icfet import build_icfet
from repro.engine.computation import EngineOptions
from repro.grammar.cfg_grammar import Grammar
from repro.graph.model import ProgramGraph
from repro.lang.parser import parse_program
from repro.lang.transform import lower_exceptions, normalize_calls, unroll_loops


@pytest.fixture()
def icfet():
    program = parse_program(
        "func main(x) { if (x > 0) { if (x > 10) { } } return; }"
    )
    normalize_calls(program)
    unroll_loops(program)
    lower_exceptions(program)
    return build_icfet(program)


class ChainGrammar(Grammar):
    def compose(self, edge1, edge2, ctx):
        if edge1[2] == ("a",) and edge2[2] == ("a",):
            return (("a",),)
        return ()


def run_string(graph, icfet, **opts):
    options = EngineOptions(memory_budget=1 << 20, **opts)
    return StringConstraintEngine(icfet, ChainGrammar(), options).run(graph)


def test_initial_payloads_stringified(icfet):
    graph = ProgramGraph()
    graph.vertices.intern(("v", 0))
    graph.vertices.intern(("v", 1))
    graph.add_edge(0, 1, ("a",), (enc.interval("main", 0, 2),))
    result = run_string(graph, icfet)
    payloads = [e for _s, _d, _l, e in result.iter_edges()]
    assert all(p[0][0] == "S" for p in payloads)
    # The x > 0 branch condition survives into the string.
    assert any("main::x" in p[0][1] for p in payloads)


def test_string_payloads_grow_with_composition(icfet):
    graph = ProgramGraph()
    for i in range(4):
        graph.vertices.intern(("v", i))
    for i in range(3):
        graph.add_edge(i, i + 1, ("a",), (enc.interval("main", 0, 2),))
    result = run_string(graph, icfet)
    lengths = {
        (s, d): len(e[0][1]) for s, d, _l, e in result.iter_edges()
    }
    # A length-3 composition's string is longer than a base edge's.
    assert lengths[(0, 3)] > lengths[(0, 1)]


def test_string_cap_drops_oversized(icfet):
    graph = ProgramGraph()
    for i in range(6):
        graph.vertices.intern(("v", i))
    for i in range(5):
        graph.add_edge(i, i + 1, ("a",), (enc.interval("main", 0, 2),))
    options = EngineOptions(memory_budget=1 << 20)
    result = StringConstraintEngine(
        icfet, ChainGrammar(), options, max_string_bytes=100
    ).run(graph)
    assert result.stats.encoding_overflow_dropped > 0
    pairs = {(s, d) for s, d, _l, _e in result.iter_edges()}
    assert (0, 5) not in pairs  # the longest chain exceeded the cap


def test_string_partitions_roundtrip_through_disk(tmp_path, icfet):
    graph = ProgramGraph()
    for i in range(10):
        graph.vertices.intern(("v", i))
    for i in range(9):
        graph.add_edge(i, i + 1, ("a",), (enc.interval("main", 0, 1),))
    options = EngineOptions(
        workdir=str(tmp_path),
        memory_budget=4096,  # force several partitions and disk traffic
    )
    result = StringConstraintEngine(icfet, ChainGrammar(), options).run(graph)
    pairs = {(s, d) for s, d, _l, _e in result.iter_edges()}
    assert (0, 9) in pairs
    assert result.stats.final_partitions > 1
    # String payload bytes are accounted per row: what an evicted
    # partition weighs when it comes back is what it weighed going out.
    store = result.store
    assert result.stats.partition_writes > 0 and store.table.has_extras()
    for part in store.partitions:
        cols = store.load(part)
        want = cols.columnar_bytes()
        assert want > 32 * cols.edge_count
        store._cache.pop(part.index)  # flushed at phase end: not dirty
        assert store.load(part).columnar_bytes() == want
