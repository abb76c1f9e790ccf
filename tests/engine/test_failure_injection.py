"""Failure-injection tests: corrupt files, hostile options, tiny budgets."""

import os
import sys

import pytest

from repro.cfet import encoding as enc
from repro.cfet.icfet import build_icfet
from repro.engine import serialize
from repro.engine.computation import EngineOptions, GraphEngine
from repro.engine.partition import PartitionStore
from repro.grammar.cfg_grammar import Grammar
from repro.graph.model import ProgramGraph
from repro.lang.parser import parse_program
from repro.lang.transform import lower_exceptions, normalize_calls, unroll_loops


@pytest.fixture()
def icfet():
    program = parse_program("func main(x) { if (x > 0) { } return; }")
    normalize_calls(program)
    unroll_loops(program)
    lower_exceptions(program)
    return build_icfet(program)


class ChainGrammar(Grammar):
    def compose(self, edge1, edge2, ctx):
        if edge1[2] == ("a",) and edge2[2] == ("a",):
            return (("a",),)
        return ()


def chain(n):
    graph = ProgramGraph()
    for i in range(n):
        graph.vertices.intern(("v", i))
    for i in range(n - 1):
        graph.add_edge(i, i + 1, ("a",), enc.single("main", 0))
    return graph


def test_truncated_partition_file_raises(tmp_path):
    store = PartitionStore(str(tmp_path), memory_budget=1 << 20, cache_slots=2)
    store.initialize({0: {(1, 0): {(("I", "f", 0, 0),)}}}, num_vertices=2,
                     min_partitions=1)
    store.flush()  # a new partition is resident; the file comes on demand
    part = store.partitions[0]
    data = open(part.path, "rb").read()
    with open(part.path, "wb") as f:
        f.write(data[: len(data) // 2])
    store._cache.clear()
    with pytest.raises((IndexError, ValueError)):
        store.load(part)


def test_flipped_bit_in_a_column_is_refused_not_adopted(tmp_path):
    """Magic, version, length and id range all still hold after a bit
    flips inside the ``dst`` column; without the checksum trailer the
    load returned a different edge."""
    store = PartitionStore(str(tmp_path), memory_budget=1 << 20, cache_slots=2)
    store.initialize(
        {src: {(src + 1, 0): {(("I", "f", 0, 0),)}} for src in range(4)},
        num_vertices=8, min_partitions=1,
    )
    store.flush()
    part = store.partitions[0]
    data = bytearray(open(part.path, "rb").read())
    width = 8 * part.edge_count
    dst_column = len(data) - serialize.TRAILER_BYTES - 3 * width
    assert int.from_bytes(data[dst_column : dst_column + 8], sys.byteorder) == 1
    data[dst_column] ^= 0x02  # dst 1 -> 3: still a vertex
    with open(part.path, "wb") as f:
        f.write(data)
    store._cache.clear()
    with pytest.raises(serialize.CorruptPartition, match="checksum"):
        store.load(part)


def test_corrupt_magic_raises(tmp_path):
    store = PartitionStore(str(tmp_path), memory_budget=1 << 20, cache_slots=2)
    store.initialize({0: {(1, 0): {(("I", "f", 0, 0),)}}}, num_vertices=2,
                     min_partitions=1)
    store.flush()  # a new partition is resident; the file comes on demand
    part = store.partitions[0]
    with open(part.path, "wb") as f:
        f.write(b"NOPE" + b"\x01" * 16)
    store._cache.clear()
    with pytest.raises(ValueError):
        store.load(part)


def test_missing_partition_file_raises(tmp_path):
    store = PartitionStore(str(tmp_path), memory_budget=1 << 20, cache_slots=2)
    store.initialize({0: {(1, 0): {(("I", "f", 0, 0),)}}}, num_vertices=2,
                     min_partitions=1)
    store.flush()  # a new partition is resident; the file comes on demand
    part = store.partitions[0]
    os.remove(part.path)
    store._cache.clear()
    # A vanished file is indistinguishable from a torn one: both surface
    # as CorruptPartition so the retry layer can attempt a rebuild.
    with pytest.raises(serialize.CorruptPartition):
        store.load(part)


def test_serializer_rejects_unknown_element():
    with pytest.raises(ValueError):
        serialize.encode_encodings([(("X", 1),)])


def test_engine_workdir_created_if_missing(tmp_path, icfet):
    workdir = str(tmp_path / "deep" / "nested" / "dir")
    options = EngineOptions(workdir=workdir, memory_budget=1 << 20)
    engine = GraphEngine(icfet, ChainGrammar(), options)
    result = engine.run(chain(3))
    assert result.stats.edges_after >= 2
    assert os.path.isdir(workdir)


def test_extreme_small_budget_still_correct(icfet):
    """A budget far below a single partition's floor must not break the
    fixpoint (splits bottom out at single-vertex partitions)."""
    options = EngineOptions(memory_budget=256)
    engine = GraphEngine(icfet, ChainGrammar(), options)
    result = engine.run(chain(8))
    pairs = {(s, d) for s, d, _l, _e in result.iter_edges()}
    assert (0, 7) in pairs
    assert len(pairs) == 8 * 7 // 2
    assert result.stats.final_partitions >= 2


def test_zero_unroll_rejected():
    from repro.analysis.frontend import compile_source

    with pytest.raises(ValueError):
        compile_source("func main() { }", unroll=0)


def test_result_cleanup_removes_workdir(icfet):
    # A budget that forces evictions: an in-budget scratch run never
    # creates the directory in the first place.
    options = EngineOptions(memory_budget=256)
    engine = GraphEngine(icfet, ChainGrammar(), options)
    result = engine.run(chain(8))
    workdir = os.path.dirname(result.store.partitions[0].path)
    assert os.path.isdir(workdir)
    result.cleanup()
    assert not os.path.exists(workdir)
