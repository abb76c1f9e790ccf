"""The closure's semi-naive bookkeeping (``scheduling.DeltaLog``) and the
edge cases where a delta seed must *not* be trusted: a split, a delta
file salvaged around corrupt frames, a log that outgrew its cap, and a
``--resume`` (the log is never persisted).  In every one the engine
falls back to seeding fully and the fixpoint is unchanged.
"""

import pytest

from repro.engine import computation, serialize
from repro.engine.computation import EngineOptions, GraphEngine
from repro.engine.partition import PartitionStore
from repro.engine.scheduling import DeltaLog

from .test_closure_oracle import (
    RB,
    UNCAPPED,
    LabelledGrammar,
    build_graph,
    naive_closure,
    random_edges,
    run_engine,
)
from .test_computation import icfet  # noqa: F401  (fixture)

ENC = (("I", "f", 0, 0),)


def relevant(label_id):
    return label_id == 0


# -- the log itself ------------------------------------------------------------


def test_first_visit_has_no_delta_then_only_what_arrived_since():
    log = DeltaLog(relevant)
    log.record(0, 1, 9, 0, 7)
    assert log.delta((0, 1)) is None  # never visited: seed fully
    log.advance((0, 1))
    assert log.delta((0, 1)) == []
    log.record(0, 2, 9, 0, 8)
    log.record(1, 5, 3, 1, 8)
    assert log.delta((0, 1)) == [(2, 9, 0, 8), (5, 3, 1, 8)]
    assert log.delta((0, 0)) is None  # cursors are per pair
    log.advance((0, 1))
    assert log.delta((0, 1)) == []
    assert log.rows(0) == [(1, 9, 0, 7), (2, 9, 0, 8)]


def test_reset_invalidates_every_cursor_into_the_partition():
    log = DeltaLog(relevant)
    for pair in ((0, 0), (0, 1), (1, 1)):
        log.advance(pair)
    log.record(0, 1, 2, 0, 7)
    log.reset(0)
    assert log.delta((0, 0)) is None
    assert log.delta((0, 1)) is None
    assert log.delta((1, 1)) == []  # untouched partition, cursor intact
    assert log.rows(0) == []
    log.advance((0, 1))  # the full-seeded visit ended: deltas resume
    log.record(0, 3, 4, 0, 7)
    assert log.delta((0, 1)) == [(3, 4, 0, 7)]


def test_log_that_outgrows_its_cap_resets_itself():
    log = DeltaLog(relevant, cap_rows=3)
    log.advance((0, 0))
    for n in range(3):
        log.record(0, n, n + 1, 0, 7)
    assert len(log.delta((0, 0))) == 3
    log.record(0, 9, 10, 0, 7)  # the fourth row does not fit
    assert log.delta((0, 0)) is None
    assert log.rows(0) == [(9, 10, 0, 7)]


def test_join_index_retires_only_pairs_nothing_points_into():
    class Part:
        def __init__(self, lo, hi):
            self.lo, self.hi = lo, hi

    partitions = [Part(0, 10), Part(10, 20), Part(20, 30)]
    log = DeltaLog(relevant)
    log.note_target(0, 15, 0)  # a relevant-source edge 0 -> 1
    log.note_target(2, 5, 1)   # label 1 can never be a left operand
    assert log.has_join(partitions, (0, 1))
    assert not log.has_join(partitions, (0, 0))
    assert not log.has_join(partitions, (0, 2))
    assert not log.has_join(partitions, (1, 2))
    log.record(2, 25, 29, 0, 7)  # arrivals feed the index too
    assert log.has_join(partitions, (2, 2)) and log.has_join(partitions, (1, 2))
    # Interval boundaries are half-open.
    log.note_target(1, 20, 0)
    assert log.has_join(partitions, (1, 2))
    assert not log.has_join(partitions, (1, 1))


# -- the store keeps it truthful ----------------------------------------------


@pytest.fixture()
def logged_store(tmp_path):
    store = PartitionStore(str(tmp_path), memory_budget=1 << 20, cache_slots=2)
    store.initialize(
        {src: {(src + 1, 0): {ENC}} for src in range(8)},
        num_vertices=16, min_partitions=1,
    )
    store.log = DeltaLog(relevant)
    return store


def test_split_resets_both_halves_and_rebuilds_their_join_sets(logged_store):
    store, log = logged_store, logged_store.log
    part = store.partitions[0]
    log.advance((0, 0))
    eid = store.table.intern(ENC)
    store.append_delta(part, {3: {(12, 0): {eid}}})
    assert log.delta((0, 0)) == [(3, 12, 0, eid)]

    left, _lc, right, _rc = store.split(part, store.load(part))
    assert right is not None
    assert log.delta((0, 0)) is None  # old cursor, new epoch
    assert log.delta((0, right.index)) is None
    assert log.rows(0) == [] and log.rows(right.index) == []
    # The destination sets describe each half's actual columns: the
    # edge 3 -> 12 stayed left (sources < 4 or so), so only the left
    # half points at vertices >= 12.
    assert left.owns(3)
    probe = [type(left)(0, 12, 16, "", "")]
    assert log.has_join(probe, (0, 0))
    assert not log._overlaps(right.index, 12, 16)


def test_salvaged_corrupt_delta_frame_resets_the_log(logged_store):
    store, log = logged_store, logged_store.log
    part = store.partitions[0]
    store.flush()
    log.advance((0, 0))
    eid = store.table.intern(ENC)
    store._cache.clear()  # not resident: the chunk goes to the delta file
    assert store.append_delta(part, {0: {(9, 0): {eid}}, 1: {(9, 0): {eid}}}) == 2
    assert len(log.delta((0, 0))) == 2
    with open(part.delta_path, "rb") as f:
        frame = bytearray(f.read())
    frame[-1] ^= 0xFF  # break the CRC, keep the length
    good = serialize.encode_frame(
        serialize.encode_partition({2: {(9, 0): {ENC}}})
    )
    with open(part.delta_path, "wb") as f:
        f.write(bytes(frame) + good)

    version = part.version
    cols = store.load(part)
    assert store.stats.delta_frames_corrupt == 1
    assert part.version == version + 1
    assert (2, 9, 0, eid) in set(cols.iter_rows())
    assert (0, 9, 0, eid) not in set(cols.iter_rows())  # lost with the frame
    # The logged arrivals no longer describe the partition: full seed.
    assert log.delta((0, 0)) is None


# -- the engine falls back to full seeds ---------------------------------------


def test_corrupt_delta_frame_mid_run_keeps_every_composed_edge(icfet):
    """``bad_frame@delta-append`` on a real run: the frame's edges are
    gone, the partition's epoch moves, and every pair touching it seeds
    fully -- so nothing *composable* is missing from the fixpoint.  The
    frame itself held reversed ``rb`` derivations (the only edges the
    serial engine ever writes to a delta file); those are derived when
    their forward edge is first inserted and cannot be composed again,
    so that one frame's worth stays lost (DESIGN.md §11)."""
    n, edges = random_edges(0)
    want = naive_closure(edges, LabelledGrammar(), icfet)
    got, stats = run_engine(
        n, edges, icfet, memory_budget=2 << 10,
        fault_plan="bad_frame@delta-append:1",
    )
    assert stats.delta_frames_corrupt == 1
    assert got <= want
    assert {edge[2] for edge in want - got} <= {RB}


def test_log_overflow_degrades_to_full_seeds_with_identical_output(
    icfet, monkeypatch
):
    n, edges = random_edges(1)
    want = naive_closure(edges, LabelledGrammar(), icfet)
    _got, roomy = run_engine(n, edges, icfet, memory_budget=2 << 10)

    class CrampedLog(DeltaLog):
        def __init__(self, relevant_source, cap_rows=None):
            super().__init__(relevant_source, cap_rows=2)

    monkeypatch.setattr(computation, "DeltaLog", CrampedLog)
    got, cramped = run_engine(n, edges, icfet, memory_budget=2 << 10)
    assert got == want
    assert cramped.pairs_delta_seeded < roomy.pairs_delta_seeded


def test_resume_with_a_cold_log_seeds_fully_and_matches(
    icfet, tmp_path, monkeypatch
):
    """The log is not in the manifest: a run that dies after a few
    visits and is resumed starts with no cursors, full-seeds every
    eligible pair and lands on the same edges as an uninterrupted run."""
    n, edges = random_edges(2)
    want = naive_closure(edges, LabelledGrammar(), icfet)

    def engine(**opts):
        options = EngineOptions(
            workdir=str(tmp_path), memory_budget=4 << 10,
            witness_cap=UNCAPPED, **opts,
        )
        return GraphEngine(icfet, LabelledGrammar(), options)

    class Crash(Exception):
        pass

    real = GraphEngine._write_checkpoint

    def dying(self, complete=False):
        real(self, complete)
        if self.stats.checkpoints_written == 6:
            raise Crash  # after the sixth manifest is durable

    monkeypatch.setattr(GraphEngine, "_write_checkpoint", dying)
    with pytest.raises(Crash):
        engine().run(build_graph(n, edges))
    monkeypatch.setattr(GraphEngine, "_write_checkpoint", real)

    resumed = engine(resume=True).run(build_graph(n, edges))
    assert set(resumed.iter_edges()) == want
    assert resumed.stats.pairs_processed > 6  # counters carried over
    # Every visit after the restart that had a cursor got it after the
    # restart: none can predate it.
    assert resumed.stats.pairs_delta_seeded < resumed.stats.pairs_processed - 6

