"""The engine owns its input graph (DESIGN.md §17).

``GraphEngine.run`` hands the graph's edge map to
``PartitionStore.initialize``, which moves each source into its
partition; afterwards the graph keeps its vertex and label tables and
its meta, and every input edge exists once, in the budgeted store.
"""

import pytest

from repro.cfet import encoding as enc
from repro.engine import checkpoint as ckpt
from repro.engine.computation import EngineOptions, GraphEngine

from .test_closure_oracle import (
    RB,
    UNCAPPED,
    B,
    LabelledGrammar,
    build_graph,
    naive_closure,
    random_edges,
)
from .test_computation import sample_icfet


def _seeded(edges):
    """The engine's input: the graph's edges plus the reversed ``rb``
    edge ``LabelledGrammar`` derives from each ``b`` edge."""
    return set(edges) | {
        (dst, src, RB, enc.reverse(encoding))
        for src, dst, label, encoding in edges if label == B
    }


def _engine(workdir=None, **opts):
    options = EngineOptions(
        workdir=None if workdir is None else str(workdir),
        memory_budget=2 << 10, witness_cap=UNCAPPED, **opts,
    )
    return GraphEngine(sample_icfet(), LabelledGrammar(), options)


def _assert_taken(graph, result, seeded, want):
    assert graph.edges == {}
    assert len(graph.vertices) and len(graph.labels)
    assert result.stats.edges_before == len(seeded)
    edges = set(result.iter_edges())
    assert seeded <= edges
    assert edges == want


def test_the_store_takes_the_input_edges_fresh_and_resumed(
    tmp_path, monkeypatch
):
    n, edges = random_edges(4, n=30)
    seeded = _seeded(edges)
    want = naive_closure(edges, LabelledGrammar(), sample_icfet())

    graph = build_graph(n, edges)
    fresh = _engine(tmp_path / "fresh").run(graph)
    assert fresh.stats.final_partitions > 1  # the budget binds
    _assert_taken(graph, fresh, seeded, want)

    class Crash(Exception):
        pass

    real, calls = GraphEngine._write_checkpoint, []

    def dying(self, complete=False):
        real(self, complete)
        calls.append(1)
        if len(calls) == 3:
            raise Crash

    monkeypatch.setattr(GraphEngine, "_write_checkpoint", dying)
    with pytest.raises(Crash):
        _engine(tmp_path / "killed").run(build_graph(n, edges))
    monkeypatch.setattr(GraphEngine, "_write_checkpoint", real)
    assert ckpt.load_manifest(str(tmp_path / "killed"))["complete"] is False
    graph = build_graph(n, edges)
    resumed = _engine(tmp_path / "killed", resume=True).run(graph)
    _assert_taken(graph, resumed, seeded, want)


class _TakenOnce(dict):
    """An edge map that raises on any read once a source has been moved
    out of it (``pop``): after that, only the store's moves and a clear
    may touch it."""

    taken = False

    def pop(self, *args):
        self.taken = True
        return super().pop(*args)


def _refusing(name):
    def method(self, *args, **kwargs):
        if self.taken:
            raise AssertionError(f"edge map read ({name}) after it was taken")
        return getattr(dict, name)(self, *args, **kwargs)
    return method


for _name in ("__getitem__", "__iter__", "__len__", "__contains__", "get",
              "keys", "values", "items", "setdefault"):
    setattr(_TakenOnce, _name, _refusing(_name))


@pytest.mark.parametrize("budget", [1 << 20, 2 << 10])
def test_nothing_reads_the_edge_map_once_the_store_took_it(budget):
    n, edges = random_edges(5, n=30)
    graph = build_graph(n, edges)
    graph.edges = _TakenOnce(graph.edges)
    options = EngineOptions(memory_budget=budget, witness_cap=UNCAPPED)
    result = GraphEngine(sample_icfet(), LabelledGrammar(), options).run(graph)
    assert graph.edges.taken
    assert dict.__len__(graph.edges) == 0
    assert set(result.iter_edges()) == naive_closure(
        edges, LabelledGrammar(), sample_icfet()
    )


def _label_table(graph) -> list:
    labels = graph.labels
    return [labels.lookup(i) for i in range(len(labels))]


def test_a_resume_seeds_nothing_and_keeps_the_label_table(
    tmp_path, monkeypatch
):
    """A resumed run's store restores input and derived edges from the
    files, and ``checkpoint.validate`` interns the manifest's labels in
    id order: seeding would be work dropped with the edge map.  The
    resumed run never seeds, and ends with the uninterrupted run's
    label table and edges."""
    n, edges = random_edges(6, n=30)
    graph = build_graph(n, edges)
    clean = _engine(tmp_path / "clean").run(graph)
    want_labels = _label_table(graph)
    assert RB in want_labels  # seeding derived a label

    class Crash(Exception):
        pass

    real, calls = GraphEngine._write_checkpoint, []

    def dying(self, complete=False):
        real(self, complete)
        calls.append(1)
        if len(calls) == 2:
            raise Crash

    monkeypatch.setattr(GraphEngine, "_write_checkpoint", dying)
    with pytest.raises(Crash):
        _engine(tmp_path / "killed").run(build_graph(n, edges))
    monkeypatch.setattr(GraphEngine, "_write_checkpoint", real)

    def never(self, graph):
        raise AssertionError("a resumed run seeded its input graph")

    monkeypatch.setattr(GraphEngine, "_seed_derived", never)
    graph = build_graph(n, edges)
    resumed = _engine(tmp_path / "killed", resume=True).run(graph)
    assert _label_table(graph) == want_labels
    assert set(resumed.iter_edges()) == set(clean.iter_edges())
    assert resumed.stats.edges_before == clean.stats.edges_before
