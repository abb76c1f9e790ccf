"""The engine against an independent oracle (ROADMAP 4a/4c).

Every other closure test compares the engine with *itself* (an earlier
version, reductions on vs off).  Here the reference is a naive worklist
closure that shares nothing with it -- no partitions, no ids, no caches,
no schedule: it composes every edge with every other until nothing new
appears.  With ``witness_cap`` too high to bind, the
closure is a terminating, confluent rewrite, so the engine must land on
exactly that edge set whatever the budget does to its schedule
(partitions that never split, split only between visits, or split in
the middle of a visit while the reverse index is live) and whichever
eligible pair it visits next.
"""

import random

import pytest

from repro.cfet import encoding as enc
from repro.engine import computation
from repro.engine.computation import EngineOptions, GraphEngine
from repro.engine.scheduling import PairScheduler
from repro.grammar.cfg_grammar import Grammar
from repro.graph.model import ProgramGraph
from repro.smt import Result, Solver

from .test_computation import icfet  # noqa: F401  (fixture)

A, B, RB = ("a",), ("b",), ("rb",)
UNCAPPED = 1 << 30


class LabelledGrammar(Grammar):
    """``a . a -> a`` and ``a . b -> b``; every ``b`` edge also derives a
    reversed ``rb`` edge (owned by the *destination's* partition, so it
    often lands in one the visit has not loaded).  Only ``a`` can be a
    left operand."""

    def compose(self, edge1, edge2, ctx):
        if edge1[2] == A and edge2[2] in (A, B):
            return (edge2[2],)
        return ()

    def derived(self, label):
        if label == B:
            yield RB, True

    def relevant_source(self, label):
        return label == A

    def relevant_target(self, label):
        return label in (A, B)


def naive_closure(initial, grammar, icfet):
    """Least edge set containing ``initial`` and closed under the
    grammar's derivations and feasible compositions."""
    solver = Solver()
    verdicts: dict = {}

    def feasible(encoding):
        if encoding not in verdicts:
            constraint = enc.decode_constraint(encoding, icfet)
            verdicts[encoding] = solver.check(constraint) is Result.SAT
        return verdicts[encoding]

    closed: set = set()
    pending = list(initial)
    while pending:
        edge = pending.pop()
        if edge in closed:
            continue
        closed.add(edge)
        src, dst, label, encoding = edge
        for derived_label, rev in grammar.derived(label):
            pending.append(
                (dst, src, derived_label, enc.reverse(encoding)) if rev
                else (src, dst, derived_label, encoding)
            )
        for other in list(closed):
            for left, right in ((edge, other), (other, edge)):
                if left[1] != right[0]:
                    continue
                for new_label in grammar.compose(left, right, None):
                    merged = enc.merge(left[3], right[3], icfet)
                    if merged is not None and feasible(merged):
                        pending.append((left[0], right[1], new_label, merged))
    return closed


#: Root-to-descendant intervals of the fixture's ``main`` CFET; mixing
#: its branches (node 1 is ``x <= 0``, node 2 ``x > 0``) gives merges
#: that are genuinely UNSAT.
_INTERVALS = ((0, 1), (0, 2), (0, 5), (0, 6), (2, 5), (2, 6))


def random_edges(seed: int, n: int = 36, density: float = 0.2):
    """A random forward DAG (so the uncapped closure is finite) whose
    edges carry ``a`` or ``b`` and a real path constraint."""
    rng = random.Random(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                if rng.random() < 0.5:
                    encoding = enc.single("main", rng.randint(0, 3))
                else:
                    encoding = (enc.interval("main", *rng.choice(_INTERVALS)),)
                edges.append((i, j, A if rng.random() < 0.75 else B, encoding))
    return n, edges


def build_graph(n, edges):
    graph = ProgramGraph()
    for i in range(n):
        graph.vertices.intern(("v", i))
    for edge in edges:
        graph.add_edge(*edge)
    return graph


def run_engine(n, edges, icfet, **opts):
    options = EngineOptions(witness_cap=UNCAPPED, **opts)
    engine = GraphEngine(icfet, LabelledGrammar(), options)
    result = engine.run(build_graph(n, edges))
    return set(result.iter_edges()), result.stats


@pytest.fixture()
def mid_pair_splits(monkeypatch):
    """Counts ``_split_loaded`` calls made while the visit's reverse
    index holds entries."""
    calls = []
    real = GraphEngine._split_loaded

    def counting(self, *args):
        calls.append(len(self._pair_in_index))
        return real(self, *args)

    monkeypatch.setattr(GraphEngine, "_split_loaded", counting)
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_engine_matches_naive_closure_across_budgets(
    icfet, seed, mid_pair_splits, monkeypatch
):
    n, edges = random_edges(seed)
    want = naive_closure(edges, LabelledGrammar(), icfet)
    assert len(want) > 3 * len(edges), "closure too small to mean anything"

    # 1. The budget never binds: no partition ever splits.
    got, stats = run_engine(n, edges, icfet, memory_budget=64 << 20)
    assert got == want
    assert stats.repartitions == 0

    # 2. A budget a few dozen rows wide splits loaded partitions in the
    #    middle of a visit, reverse index live.
    got, stats = run_engine(n, edges, icfet, memory_budget=2 << 10)
    assert got == want
    assert mid_pair_splits and max(mid_pair_splits) > 0
    assert stats.pairs_delta_seeded > 0 and stats.pairs_skipped > 0

    # 3. Same budget with the eager split disabled: partitions outgrow
    #    the cap during a visit and are split when it ends.
    monkeypatch.setattr(GraphEngine, "_split_loaded", lambda self, *a: None)
    got, stats = run_engine(n, edges, icfet, memory_budget=2 << 10)
    assert got == want
    assert stats.repartitions > 0


@pytest.mark.parametrize("order_seed", range(5))
def test_any_eligible_pair_order_reaches_the_same_edges(
    icfet, order_seed, monkeypatch
):
    """Confluence, tested directly: visit a *random* eligible pair each
    step instead of the lexicographically smallest."""
    n, edges = random_edges(11)
    want = naive_closure(edges, LabelledGrammar(), icfet)
    rng = random.Random(order_seed)

    class ShuffledScheduler(PairScheduler):
        def next_pair(self):
            self._refresh()
            eligible = sorted(p for p in self._in_heap if self._eligible(p))
            return rng.choice(eligible) if eligible else None

    monkeypatch.setattr(computation, "PairScheduler", ShuffledScheduler)
    got, stats = run_engine(n, edges, icfet, memory_budget=2 << 10)
    assert got == want
    assert stats.repartitions > 0
