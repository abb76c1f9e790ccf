"""Tests for the closure's drain (``engine/kernel.py``).

What is pinned here is what the one drain must keep doing: insert in a
fixed order (the witness cap makes it observable), survive partition
splits, and not depend on its memo tables' capacities.  The independent
reference is ``test_closure_oracle``'s naive closure; the canonical-form
key has its own tests in ``tests/cfet``.
"""

import pytest

from repro.cfet import encoding as enc
from repro.engine import computation as computation_mod
from repro.engine.computation import EngineOptions, GraphEngine
from repro.graph.model import ProgramGraph
from repro.smt import Result, Solver
from repro.smt import expr as E

from .test_closure_oracle import build_graph, naive_closure, random_edges
from .test_computation import ChainGrammar, build_chain, icfet  # noqa: F401

#: Deterministic counters a run is compared by (timing fields excluded).
PARITY_FIELDS = (
    "new_edges", "edges_after", "compositions_tried", "constraint_queries",
    "cache_hits", "constraints_solved", "infeasible_dropped",
    "feasibility_groups", "group_hits", "join_batches", "join_probes",
    "encoding_overflow_dropped", "iterations", "pairs_processed",
)

def _run_engine(graph_seed, icfet):
    """A random forward DAG whose merges are real feasibility checks
    (UNSAT pairs included), closed under ``a . a -> a``."""
    options = EngineOptions(memory_budget=1 << 20)
    engine = GraphEngine(icfet, ChainGrammar(), options)
    graph = build_graph(*random_edges(graph_seed, n=14, density=0.35))
    return engine, engine.run(graph)


def _observe(engine, result):
    edges = sorted(result.iter_edges())
    counters = {f: getattr(result.stats, f) for f in PARITY_FIELDS}
    memos = {
        "form_memo": dict(engine._form_memo),
        "verdicts": (bytes(engine._verdicts), dict(engine._multi_verdicts)),
        "merge_memo": dict(engine._merge_memo),
    }
    return edges, counters, memos


@pytest.mark.parametrize("seed", range(3))
def test_full_decode_caches_change_nothing(icfet, seed, monkeypatch):
    """FORM_PIECES_CAP bounds the form-key piece table and the literal
    templates a key is solved with; once full they stop accepting
    writes, which may cost recomputation but no verdict, counter or
    memo entry."""
    base = _observe(*_run_engine(seed, icfet))
    assert base[0], "fuzz graph produced no edges"
    monkeypatch.setattr(computation_mod, "FORM_PIECES_CAP", 2)
    engine, result = _run_engine(seed, icfet)
    assert len(engine._pieces.pieces) == 2
    assert len(engine._pieces.templates) == 2
    assert result.stats.constraints_solved > 2
    assert _observe(engine, result) == base


def test_a_seeded_run_solves_every_query_like_its_decoded_constraint(
    icfet, monkeypatch
):
    """The engine solves a query's form key (``cfet.encoding.
    key_literals``), never its decoded constraint: on a seeded run with
    UNSAT compositions, every query answers what ``Solver.check`` says
    of the decoded conjunction."""
    real, checked = GraphEngine._feasible_ids, []

    def compared(engine, ids):
        verdict = real(engine, ids)
        constraints = [
            enc.decode_constraint(engine._enc.decode(eid), engine.icfet)
            for eid in ids
        ]
        want = Solver().check(E.and_(*constraints)) is Result.SAT
        assert verdict == want, constraints
        checked.append(verdict)
        return verdict

    monkeypatch.setattr(GraphEngine, "_feasible_ids", compared)
    _run_engine(1, icfet)
    assert len(checked) > 20 and True in checked and False in checked


@pytest.mark.parametrize("seed", range(3))
def test_full_verdict_cache_costs_rekeying_never_a_verdict(
    icfet, seed, monkeypatch
):
    """The verdict store has no cap and evicts nothing; dropping every
    stored verdict mid-run (here before every third query) makes the
    repeated queries miss it -- and land on the form memo: same edges,
    same solves, same form memo as the undisturbed run."""
    base_engine, base_result = _run_engine(seed, icfet)
    real, calls = GraphEngine._feasible_ids, []

    def forgetful(engine, ids):
        calls.append(ids)
        if len(calls) % 3 == 0:
            del engine._verdicts[:]
            engine._multi_verdicts.clear()
        return real(engine, ids)

    monkeypatch.setattr(GraphEngine, "_feasible_ids", forgetful)
    engine, result = _run_engine(seed, icfet)
    assert sorted(result.iter_edges()) == sorted(base_result.iter_edges())
    assert engine._form_memo == base_engine._form_memo
    stats, base = result.stats, base_result.stats
    for name in ("constraint_queries", "constraints_solved",
                 "feasibility_groups", "new_edges", "infeasible_dropped"):
        assert getattr(stats, name) == getattr(base, name)
    # What the dropped verdicts would have answered, the form memo did.
    assert stats.cache_hits < base.cache_hits
    assert (stats.cache_hits + stats.group_hits
            == base.cache_hits + base.group_hits)


def test_small_budget_partition_traffic_matches_naive_closure(icfet):
    """Mid-run splits and multi-partition joins lose no composition."""
    edges = [(i, i + 1, ("a",), enc.single("main", 0)) for i in range(59)]
    want = naive_closure(edges, ChainGrammar(), icfet)
    options = EngineOptions(memory_budget=6 << 10)
    result = GraphEngine(icfet, ChainGrammar(), options).run(
        build_chain(60, icfet)
    )
    assert set(result.iter_edges()) == want
    stats = result.stats
    assert stats.repartitions > 0 and stats.final_partitions > 2


def test_witness_cap_order_preserved(icfet):
    """The witness cap makes insert order observable: join vertices are
    walked in ascending order, so of the two routes 0 -> 3 the one
    through vertex 1 arrives first and is the one kept."""
    graph = ProgramGraph()
    for i in range(4):
        graph.vertices.intern(("v", i))
    graph.add_edge(0, 1, ("a",), enc.single("main", 0))
    graph.add_edge(1, 3, ("a",), enc.single("main", 1))
    graph.add_edge(0, 2, ("a",), enc.single("main", 0))
    graph.add_edge(2, 3, ("a",), enc.single("main", 2))
    options = EngineOptions(memory_budget=1 << 20, witness_cap=1)
    result = GraphEngine(icfet, ChainGrammar(), options).run(graph)
    assert sorted(result.iter_edges()) == [
        (0, 1, ("a",), (("I", "main", 0, 0),)),
        (0, 2, ("a",), (("I", "main", 0, 0),)),
        (0, 3, ("a",), (("I", "main", 0, 0), ("I", "main", 1, 1))),
        (1, 3, ("a",), (("I", "main", 1, 1),)),
        (2, 3, ("a",), (("I", "main", 2, 2),)),
    ]
