"""Unit tests for the LRU cache, engine statistics and the span table
they are timed by."""

import pytest

from repro.engine.cache import LRUCache
from repro.engine.stats import EngineStats
from repro.obs.report import breakdown
from repro.obs.trace import TraceRecorder


def test_cache_basic_get_put():
    cache = LRUCache(4)
    cache.put("a", True)
    assert cache.get("a") is True
    assert cache.hits == 1 and cache.misses == 0


def test_cache_miss_counts():
    cache = LRUCache(4)
    assert cache.get("missing") is None
    assert cache.misses == 1


def test_cache_eviction_order_is_lru():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # "a" becomes most recently used
    cache.put("c", 3)  # evicts "b"
    assert "a" in cache and "c" in cache
    assert "b" not in cache


def test_cache_put_refreshes_recency():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)
    cache.put("c", 3)  # evicts "b", not "a"
    assert cache.get("a") == 10
    assert "b" not in cache


def test_cache_capacity_validated():
    with pytest.raises(ValueError):
        LRUCache(0)


def test_cache_stores_false_values():
    """False (UNSAT) results must be distinguishable from missing."""
    cache = LRUCache(4)
    cache.put("k", False)
    assert cache.get("k") is False


def test_cache_clear():
    cache = LRUCache(4)
    cache.put("a", 1)
    cache.get("a")
    cache.clear()
    assert len(cache) == 0
    assert cache.hits == 0


def test_engine_counts_feasibility_memo_hits():
    """Repeated feasibility queries for the same encoding id are answered
    by the id-indexed verdict store, and every hit the stats report is a
    hit of that store (there is no other level to hit): each miss
    stores exactly one verdict, each hit reads one."""
    from repro.cfet import encoding as enc
    from repro.cfet.icfet import build_icfet
    from repro.engine.computation import EngineOptions, GraphEngine
    from repro.grammar.cfg_grammar import Grammar
    from repro.graph.model import ProgramGraph
    from repro.lang.parser import parse_program

    class ChainGrammar(Grammar):
        def compose(self, edge1, edge2, ctx):
            if edge1[2] == ("a",) and edge2[2] == ("a",):
                return (("a",),)
            return ()

    icfet = build_icfet(parse_program("func main(x) { return; }"))
    graph = ProgramGraph()
    for i in range(6):
        graph.vertices.intern(("v", i))
    for i in range(5):
        graph.add_edge(i, i + 1, ("a",), enc.single("main", 0))
    engine = GraphEngine(icfet, ChainGrammar(),
                         EngineOptions(memory_budget=1 << 20))
    engine.run(graph)
    stats = engine.stats
    assert stats.cache_hits > 0
    stored = sum(1 for verdict in engine._verdicts if verdict)
    assert stored + len(engine._multi_verdicts) == (
        stats.constraint_queries - stats.cache_hits
    )
    # Single-encoding queries only: the store is one byte per id.
    assert not engine._multi_verdicts
    assert len(engine._verdicts) <= len(engine._enc)


def test_stats_timing_accumulates():
    """A span name's row accumulates over its calls."""
    rec = TraceRecorder(chrome=False)
    window = rec.window()
    for _ in range(2):
        with rec.span("partition-load"):
            pass
    self_s, incl_s, calls = window.spans()["partition-load"]
    assert calls == 2 and 0 <= self_s == incl_s


def test_stats_breakdown_sums_to_one():
    """The Fig. 9 breakdown splits the closure windows by span name."""
    shares = breakdown({
        "closure": (2.0, 10.0, 1), "pair-compute": (2.0, 8.0, 1),
        "partition-load": (1.0, 1.0, 3), "form-key": (2.0, 2.0, 9),
        "smt-solve": (3.0, 3.0, 4),
    })
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    assert shares == {"io": 0.1, "encode": 0.2, "smt": 0.3, "compute": 0.4}


def test_stats_breakdown_empty_is_zero():
    assert sum(breakdown({}).values()) == 0.0


def test_stats_cache_hit_rate():
    stats = EngineStats(constraint_queries=10, cache_hits=7)
    assert stats.cache_hit_rate == 0.7
    assert EngineStats().cache_hit_rate == 0.0


def test_stats_merge_sums_components():
    a = EngineStats(new_edges=5, cache_hits=3, constraint_queries=4)
    b = EngineStats(new_edges=2, cache_hits=1, constraint_queries=2)
    a.merge_phase(b)
    assert a.new_edges == 7
    assert a.cache_hits == 4
    assert a.constraint_queries == 6
