"""The names the committed benchmark harness wraps but the engine no
longer has a use for: they exist, and nothing calls them."""

import pytest

from repro.engine import io_pipeline, partition, serialize
from repro.engine.computation import EngineOptions, GraphEngine

from .test_closure_oracle import (
    UNCAPPED,
    LabelledGrammar,
    build_graph,
    random_edges,
)
from .test_computation import sample_icfet

STUBS = (
    (io_pipeline.PrefetchReader, "schedule"),
    (io_pipeline.PrefetchReader, "take"),
    (io_pipeline.PrefetchReader, "close"),
    (io_pipeline.SpillWriter, "append"),
    (io_pipeline.SpillWriter, "flush"),
    (io_pipeline.SpillWriter, "close"),
    (partition.PartitionStore, "prefetch_schedule"),
    (serialize, "encode_partition"),
    (serialize, "decode_partition"),
)


def test_nothing_calls_the_harness_stubs(tmp_path, monkeypatch):
    """A durable run that loads, evicts, splits and folds pending rows
    into partition files never reaches one of them."""

    def called(*args, **kwargs):
        pytest.fail("a harness stub was called")

    for owner, name in STUBS:
        assert callable(getattr(owner, name))
        monkeypatch.setattr(owner, name, called)
    options = EngineOptions(workdir=str(tmp_path), memory_budget=1 << 10,
                            witness_cap=UNCAPPED)
    engine = GraphEngine(sample_icfet(), LabelledGrammar(), options)
    result = engine.run(build_graph(*random_edges(1, n=24)))
    stats = result.stats
    assert stats.pending_rows and stats.repartitions
    assert stats.partition_writes and len(set(result.iter_edges()))
