"""Unit tests for on-disk partitions, deltas, caching and splitting."""

import os

import pytest

from repro.engine.partition import PartitionStore
from repro.engine.stats import EngineStats


def edges_for(sources, enc_len=1):
    return {
        src: {(src + 100, 0): {tuple(("I", "f", 0, i) for i in range(enc_len))}}
        for src in sources
    }


@pytest.fixture()
def store(tmp_path):
    return PartitionStore(str(tmp_path), memory_budget=1 << 20,
                          stats=EngineStats(), cache_slots=2)


def test_initialize_creates_min_partitions(store):
    store.initialize(edges_for(range(10)), num_vertices=200, min_partitions=2)
    assert len(store.partitions) >= 2
    # Intervals must tile [0, 200) without gaps.
    parts = sorted(store.partitions, key=lambda p: p.lo)
    assert parts[0].lo == 0
    assert parts[-1].hi == 200
    for a, b in zip(parts, parts[1:]):
        assert a.hi == b.lo


def test_partition_of_finds_owner(store):
    store.initialize(edges_for(range(10)), num_vertices=100, min_partitions=2)
    for v in (0, 50, 99):
        part = store.partition_of(v)
        assert part.owns(v)
    with pytest.raises(KeyError):
        store.partition_of(1000)


def test_load_returns_saved_edges(store):
    edges = edges_for(range(5))
    store.initialize(edges, num_vertices=100, min_partitions=1)
    assert edges == {}  # the store took them
    loaded = {}
    for part in store.partitions:
        loaded.update(store.load(part).to_dict())
    assert loaded == edges_for(range(5))


def test_append_delta_merged_on_load(tmp_path):
    # cache_slots must be small enough to evict, so deltas go to disk.
    store = PartitionStore(str(tmp_path), memory_budget=1 << 20,
                           cache_slots=2)
    store.initialize(edges_for(range(4)), num_vertices=100, min_partitions=4)
    target = store.partitions[0]
    # Evict partition 0 from cache by loading others.
    for part in store.partitions[1:]:
        store.load(part)
    assert target.index not in store._cache
    # Spill chunks are id-encoded (the store's own table).
    delta = {0: {(42, 1): {store.table.intern((("I", "g", 0, 0),))}}}
    version_before = target.version
    assert store.append_delta(target, delta) == 1
    assert target.version > version_before
    loaded = store.load(target).to_dict()
    assert (42, 1) in loaded[0]


def test_append_delta_into_cached_partition(store):
    store.initialize(edges_for(range(4)), num_vertices=100, min_partitions=2)
    target = store.partitions[0]
    store.load(target)
    chunk = {0: {(9, 9): {store.table.intern((("I", "g", 0, 0),))}}}
    assert store.append_delta(target, chunk) == 1
    assert (9, 9) in store.load(target).to_dict()[0]
    # A resident target deduplicates: nothing arrives the second time.
    version = target.version
    assert store.append_delta(target, chunk) == 0
    assert target.version == version


def test_flush_persists_dirty_partitions(tmp_path):
    store = PartitionStore(str(tmp_path), memory_budget=1 << 20)
    store.initialize(edges_for(range(4)), num_vertices=100, min_partitions=1)
    part = store.partitions[0]
    cols = store.load(part)
    cols.insert(99, 1, 0, store.table.intern((("I", "h", 0, 0),)))
    store.save(part, cols)
    store.flush()
    # A brand-new store reading the same file must see the update.
    fresh = PartitionStore(str(tmp_path), memory_budget=1 << 20)
    fresh.partitions = store.partitions
    fresh._cache.clear()
    import repro.engine.serialize as ser

    with open(part.path, "rb") as f:
        assert 99 in ser.parse_columnar(f.read()).src


def test_split_balances_edges(tmp_path):
    store = PartitionStore(str(tmp_path), memory_budget=1 << 20)
    edges = edges_for(range(40))
    store.initialize(edges, num_vertices=100, min_partitions=1)
    part = store.partitions[0]
    loaded = store.load(part)
    left, left_cols, right, right_cols = store.split(part, loaded)
    assert right is not None
    assert left.hi == right.lo
    left_srcs = set(left_cols.iter_sources())
    right_srcs = set(right_cols.iter_sources())
    assert left_srcs | right_srcs == set(range(40))
    assert all(src < left.hi for src in left_srcs)
    assert all(src >= right.lo for src in right_srcs)
    assert store.stats.repartitions == 1


def test_split_single_vertex_refuses(tmp_path):
    store = PartitionStore(str(tmp_path), memory_budget=64)
    store.initialize({0: {(1, 0): {(("I", "f", 0, 0),)}}}, num_vertices=1,
                     min_partitions=1)
    part = store.partitions[0]
    loaded = store.load(part)
    left, _, right, _ = store.split(part, loaded)
    assert right is None


def test_needs_split_threshold(tmp_path):
    store = PartitionStore(str(tmp_path), memory_budget=100)
    store.initialize(edges_for(range(30)), num_vertices=100, min_partitions=1)
    assert store.needs_split(store.partitions[0])


def test_iter_all_edges_streams_everything(store):
    edges = edges_for(range(10))
    store.initialize(edges, num_vertices=100, min_partitions=3)
    seen = set()
    for src, dst, label_id, _enc in store.iter_all_edges():
        seen.add((src, dst, label_id))
    assert seen == {(src, src + 100, 0) for src in range(10)}


def test_iter_all_edges_order_ignores_split_history(store):
    store.initialize(edges_for(range(40)), num_vertices=100, min_partitions=2)
    first = min(store.partitions, key=lambda p: p.lo)
    _, _, right, _ = store.split(first, store.load(first))
    # The right half was created last but sits between the two.
    assert store.partitions[-1] is right and right.hi < 100
    assert [src for src, *_ in store.iter_all_edges()] == list(range(40))


def test_warning_order_does_not_depend_on_the_budget():
    """The smallest pair that printed its warnings in another order:
    gateway scale 1 under a 1.5 KiB budget (32 splits)."""
    from repro import EngineOptions, Grapple, GrappleOptions
    from repro.checkers.checker import pack_checkers
    from repro.workloads.multifile import build_multifile_subject

    sources = build_multifile_subject("gateway", scale=1.0).sources
    fsms = [c.fsm for c in pack_checkers()]

    def run(budget):
        options = GrappleOptions(engine=EngineOptions(memory_budget=budget))
        return Grapple(sources, fsms, options).run()

    roomy, tight = run(64 << 20), run(1536)
    assert tight.stats.repartitions > roomy.stats.repartitions == 0
    assert [str(w) for w in tight.report.warnings] == \
        [str(w) for w in roomy.report.warnings]
    for phase in ("alias_phase", "dataflow_phase"):
        assert list(getattr(tight, phase).engine_result.iter_edges()) == \
            list(getattr(roomy, phase).engine_result.iter_edges())


def test_total_edges_counts(store):
    store.initialize(edges_for(range(12)), num_vertices=100, min_partitions=2)
    assert store.total_edges() == 12
