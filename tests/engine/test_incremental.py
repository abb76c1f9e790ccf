"""The file-dependency relation's strata vs. a from-scratch WCC oracle.

The oracle is an independent flood fill over the symmetric edge set,
recomputed per step; ``components`` must agree with it after every
insert and removal, including cycles, self-loops and re-insertions,
and ``apply`` must report exactly the set difference.
"""

import random

import pytest

from repro.engine.incremental import IncrementalClosure


def scratch_components(nodes, edges):
    """Weakly-connected components by flood fill, ordered by smallest
    member -- shares no code (or algorithm) with the union-find."""
    neighbours = {node: set() for node in nodes}
    for src, dst in edges:
        neighbours.setdefault(src, set()).add(dst)
        neighbours.setdefault(dst, set()).add(src)
    out, seen = [], set()
    for start in sorted(neighbours):
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        while frontier:
            for nxt in neighbours[frontier.pop()] - comp:
                comp.add(nxt)
                frontier.append(nxt)
        seen |= comp
        out.append(comp)
    return out


def applied(*edges):
    inc = IncrementalClosure()
    inc.apply(edges)
    return inc


class TestIncrementalClosure:
    def test_single_chain(self):
        inc = IncrementalClosure()
        assert inc.apply({("a", "b")}) == (1, 0)
        assert inc.apply({("a", "b"), ("b", "c")}) == (1, 0)
        assert inc.components([]) == [{"a", "b", "c"}]

    def test_retraction_splits_only_when_connectivity_goes(self):
        inc = applied(("a", "b"), ("b", "c"), ("a", "c"))
        # a and c are joined twice (directly and via b): dropping the
        # direct edge keeps the stratum whole, dropping b->c as well
        # leaves c on its own.
        assert inc.apply({("a", "b"), ("b", "c")}) == (0, 1)
        assert inc.components([]) == [{"a", "b", "c"}]
        assert inc.apply({("a", "b")}) == (0, 1)
        assert inc.components(["c"]) == [{"a", "b"}, {"c"}]

    def test_cycle_insert_and_retract(self):
        chain = {("a", "b"), ("b", "c")}
        inc = applied(*chain)
        assert inc.apply(chain | {("c", "a")}) == (1, 0)
        assert inc.components([]) == [{"a", "b", "c"}]
        assert inc.apply(chain) == (0, 1)
        assert inc.components([]) == [{"a", "b", "c"}]

    def test_mixed_sign_delta(self):
        inc = applied(("a", "b"), ("b", "c"))
        assert inc.apply({("a", "b"), ("b", "d")}) == (1, 1)
        assert inc.components(["c"]) == [{"a", "b", "d"}, {"c"}]

    def test_empty_delta_is_noop(self):
        inc = applied(("a", "b"))
        assert inc.apply({("a", "b")}) == (0, 0)
        assert inc.apply([("a", "b"), ("a", "b")]) == (0, 0)  # a set
        assert inc.edges == {("a", "b")}

    def test_components_are_weakly_connected(self):
        inc = applied(
            ("a", "b"), ("c", "b"),   # one component via shared b
            ("x", "y"),               # another
        )
        assert inc.components(["a", "x", "lone"]) == [
            {"a", "b", "c"}, {"lone"}, {"x", "y"},
        ]

    def test_component_merge_and_split(self):
        base = {("a", "b"), ("x", "y")}
        inc = applied(*base)
        assert inc.components([]) == [{"a", "b"}, {"x", "y"}]
        inc.apply(base | {("b", "x")})
        assert inc.components([]) == [{"a", "b", "x", "y"}]
        inc.apply(base)
        assert inc.components([]) == [{"a", "b"}, {"x", "y"}]

    def test_isolated_nodes_and_self_loops_are_singletons(self):
        inc = applied(("s", "s"))
        assert inc.components(["q", "p"]) == [{"p"}, {"q"}, {"s"}]
        assert IncrementalClosure().components([]) == []

    def test_order_is_by_smallest_member_whatever_the_input_order(self):
        edges = [("m", "z"), ("b", "y"), ("c", "a")]
        want = [{"a", "c"}, {"b", "y"}, {"k"}, {"m", "z"}]
        for nodes in (["k", "z", "a"], ["a", "z", "k"]):
            for order in (edges, edges[::-1]):
                assert applied(*order).components(nodes) == want


@pytest.mark.parametrize("seed", [7, 55, 1009])
def test_random_edit_sequence_matches_scratch(seed):
    """N random inserts/removals (self-loops, cycles and re-insertions
    included); strata always equal the oracle's and the per-step counts
    are exactly the set difference."""
    rng = random.Random(seed)
    nodes = [f"n{i:02d}" for i in range(rng.randint(9, 12))]
    inc = IncrementalClosure()
    live = set()
    for _ in range(160):
        prev = set(live)
        if live and rng.random() < 0.45:
            live.remove(rng.choice(sorted(live)))
        else:
            live.add((rng.choice(nodes), rng.choice(nodes)))
        assert inc.apply(live) == (len(live - prev), len(prev - live))
        assert inc.edges == live
        assert inc.components(nodes) == scratch_components(nodes, live)


def test_batch_delta_matches_scratch():
    rng = random.Random(99)
    nodes = list("abcdefghij")
    inc = IncrementalClosure()
    live = set()
    for _ in range(40):
        prev = set(live)
        for _ in range(rng.randint(1, 5)):
            if live and rng.random() < 0.4:
                live.remove(rng.choice(sorted(live)))
            else:
                live.add((rng.choice(nodes), rng.choice(nodes)))
        assert inc.apply(live) == (len(live - prev), len(prev - live))
        assert inc.components(nodes) == scratch_components(nodes, live)


def test_random_graphs_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(4)
    nodes = [f"n{i:02d}" for i in range(12)]
    for _ in range(60):
        edges = {
            (rng.choice(nodes), rng.choice(nodes))
            for _ in range(rng.randint(0, 14))
        }
        graph = nx.DiGraph()
        graph.add_nodes_from(nodes)
        graph.add_edges_from(edges)
        want = sorted(
            (set(c) for c in nx.weakly_connected_components(graph)), key=min
        )
        assert applied(*edges).components(nodes) == want
