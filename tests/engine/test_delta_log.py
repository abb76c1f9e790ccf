"""The closure's semi-naive bookkeeping (``scheduling.DeltaLog``): one
cursor per cell, the plan that retires a workless pair unloaded, and
the edge cases where a delta seed must *not* be trusted: a split, a log
that outgrew its cap, a ``--resume`` (the log is never persisted) and a
pair given up after a failed load.  In every one the engine falls back
to seeding fully and the fixpoint is unchanged.
"""

import pytest

from repro import Grapple, GrappleOptions, default_checkers
from repro.engine import computation, serialize
from repro.engine.computation import EngineOptions, GraphEngine
from repro.engine.partition import PartitionStore
from repro.engine.scheduling import DeltaLog
from repro.workloads import build_subject

from .test_closure_oracle import (
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
    return label_id == 0  # only label 0 can be a left operand


def target(label_id):
    return label_id in (0, 1)


class Part:
    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi


PARTS = [Part(0, 10), Part(10, 20), Part(20, 30)]


# -- the log itself ------------------------------------------------------------


def test_first_visit_has_no_delta_then_only_what_arrived_since():
    log = DeltaLog(relevant, target)
    log.record(0, 1, 9, 0, 7)
    assert log.plan(PARTS, (0, 0)) == {(0, 0): None}  # never closed: full
    log.advance((0, 0))
    assert log.plan(PARTS, (0, 0)) == {}  # closed, nothing since: workless
    log.record(0, 2, 9, 0, 8)  # a left joining at 9
    log.record(0, 9, 3, 1, 8)  # a right out of 9, where a left of 0 joins
    log.record(0, 4, 3, 1, 8)  # a right no left of 0 reaches
    assert log.plan(PARTS, (0, 0)) == {
        (0, 0): ([(2, 9, 0, 8)], [(9, 3, 1, 8)]),
    }
    log.advance((0, 0))
    assert log.plan(PARTS, (0, 0)) == {}
    assert log.rows(0) == [
        (1, 9, 0, 7), (2, 9, 0, 8), (9, 3, 1, 8), (4, 3, 1, 8),
    ]


def test_a_closed_intra_cell_is_not_reseeded_by_the_next_pair():
    """After a visit of ``(0, 1)`` closed partition 0's intra cell, the
    first visit of ``(0, 2)`` seeds only its cross cell: nothing 0 holds
    that joins inside 0 is composed again."""
    log = DeltaLog(relevant, target)
    log.record(0, 1, 5, 0, 7)  # 0 -> 0
    log.record(0, 5, 25, 0, 7)  # 0 -> 2
    log.record(1, 12, 3, 0, 7)  # 1 -> 0
    assert log.plan(PARTS, (0, 1)) == {(0, 0): None, (1, 0): None}
    for key in ((0, 1), (0, 0), (1, 1)):  # what the end of the visit moves
        log.advance(key)
    assert log.plan(PARTS, (0, 2)) == {(0, 2): None}
    log.record(0, 2, 6, 0, 8)  # arrives after: 0's intra cell seeds it
    assert log.plan(PARTS, (0, 2)) == {
        (0, 0): ([(2, 6, 0, 8)], []), (0, 2): None,
    }
    # Cross cells keep the pair's cursor: (0, 1) has one, so its cross
    # cells see only what arrived since -- which joins in neither.
    assert log.plan(PARTS, (0, 1)) == {(0, 0): ([(2, 6, 0, 8)], [])}


def test_reset_invalidates_every_cursor_into_the_partition():
    log = DeltaLog(relevant, target)
    log.note_target(0, 5, 0)
    log.note_target(1, 15, 0)
    for key in ((0, 0), (0, 1), (1, 1)):
        log.advance(key)
    assert log.plan(PARTS, (0, 1)) == {}
    log.record(0, 1, 2, 0, 7)
    log.reset(0)
    # 0's cells seed fully (where its join index reaches); 1's intra
    # cell is untouched and has nothing new.
    assert log.plan(PARTS, (0, 1)) == {(0, 0): None}
    assert log.rows(0) == []
    for key in ((0, 1), (0, 0), (1, 1)):  # the full-seeded visit ended
        log.advance(key)
    log.record(0, 3, 4, 0, 7)
    assert log.plan(PARTS, (0, 1)) == {(0, 0): ([(3, 4, 0, 7)], [])}


def test_log_that_outgrows_its_cap_resets_itself():
    log = DeltaLog(relevant, target, cap_rows=3)
    log.advance((0, 0))
    for n in range(3):
        log.record(0, n, n + 1, 0, 7)
    lefts, _rights = log.plan(PARTS, (0, 0))[(0, 0)]
    assert len(lefts) == 3
    log.record(0, 9, 10, 0, 7)  # the fourth row does not fit
    assert log.plan(PARTS, (0, 0)) == {(0, 0): None}
    assert log.rows(0) == [(9, 10, 0, 7)]


def test_join_index_retires_only_pairs_nothing_points_into():
    log = DeltaLog(relevant, target)
    log.note_target(0, 15, 0)  # a relevant-source edge 0 -> 1
    log.note_target(2, 5, 1)  # label 1 can never be a left operand
    assert log.plan(PARTS, (0, 1)) == {(0, 1): None}
    assert log.plan(PARTS, (0, 0)) == {}
    assert log.plan(PARTS, (0, 2)) == {}
    assert log.plan(PARTS, (1, 2)) == {}
    log.record(2, 25, 29, 0, 7)  # arrivals feed the index too
    assert log.plan(PARTS, (2, 2)) == {(2, 2): None}
    assert log.plan(PARTS, (1, 2)) == {(2, 2): None}
    # Interval boundaries are half-open.
    log.note_target(1, 20, 0)
    assert log.plan(PARTS, (1, 2)) == {(1, 2): None, (2, 2): None}
    assert log.plan(PARTS, (1, 1)) == {}


# -- the store keeps it truthful ----------------------------------------------


@pytest.fixture()
def logged_store(tmp_path):
    store = PartitionStore(str(tmp_path), memory_budget=1 << 20, cache_slots=2)
    store.initialize(
        {src: {(src + 1, 0): {ENC}} for src in range(8)},
        num_vertices=16, min_partitions=1,
    )
    store.log = DeltaLog(relevant, target)
    return store


def test_split_resets_both_halves_and_rebuilds_their_join_sets(logged_store):
    """A split hands each half its rows of the log (by source, in
    order) and carries the closed intra cell's cursor to every cell of
    either half, so only what arrived after that cursor seeds.  The
    join sets are rebuilt from each half's actual columns, as a reset
    rebuilds one."""
    store, log = logged_store, logged_store.log
    part = store.partitions[0]
    log.advance((0, 0))
    eid = store.table.intern(ENC)
    store.append_delta(part, {3: {(12, 0): {eid}}, 6: {(13, 0): {eid}}})
    assert log.plan(store.partitions, (0, 0)) == {
        (0, 0): ([(3, 12, 0, eid), (6, 13, 0, eid)], []),
    }

    left, _lc, right, _rc = store.split(part, store.load(part))
    assert right is not None
    new = right.index
    assert (left.lo, left.hi, right.lo, right.hi) == (0, 4, 4, 16)
    assert log.rows(0) == [(3, 12, 0, eid)]
    assert log.rows(new) == [(6, 13, 0, eid)]
    # Carried cursors: the chain 0 -> 1 -> ... -> 8 closed before the
    # split is not composed again in any cell.  3 -> 12 is a right for
    # 2 -> 3 (left half) and a left joining in the new half; 6 -> 13
    # is both inside the new half.
    assert log.plan(store.partitions, (0, 0)) == {
        (0, 0): ([], [(3, 12, 0, eid)]),
    }
    assert log.plan(store.partitions, (0, new)) == {
        (0, 0): ([], [(3, 12, 0, eid)]),
        (0, new): ([(3, 12, 0, eid)], []),
        (new, new): ([(6, 13, 0, eid)], [(6, 13, 0, eid)]),
    }
    # The destination sets describe each half's actual columns.
    assert log._dsts == {0: {1, 2, 3, 4, 12}, new: {5, 6, 7, 8, 13}}
    # A reset still invalidates every cursor into a half.
    log.reset(new, store.load(right))
    plan = log.plan(store.partitions, (0, new))
    assert plan[(0, new)] is None and plan[(new, new)] is None


def test_split_between_visits_leaves_a_closed_cell_closed(icfet, monkeypatch):
    """Splits that happen only between visits (the eager mid-visit split
    disabled): carrying the cursors reaches the same edges as resetting
    both halves, with fewer compositions -- the cells the split
    partition had closed are not seeded fully again."""
    n, edges = random_edges(1)
    want = naive_closure(edges, LabelledGrammar(), icfet)
    monkeypatch.setattr(GraphEngine, "_split_loaded", lambda self, *a: None)
    carried, carried_stats = run_engine(n, edges, icfet, memory_budget=2 << 10)

    def reset_both(self, index, new_index, mid, left_cols, right_cols):
        self.reset(index, left_cols)
        self.reset(new_index, right_cols)

    monkeypatch.setattr(DeltaLog, "split", reset_both)
    reset, reset_stats = run_engine(n, edges, icfet, memory_budget=2 << 10)
    assert carried == reset == want
    assert carried_stats.repartitions == reset_stats.repartitions > 0
    assert carried_stats.compositions_tried < reset_stats.compositions_tried


# -- the engine falls back to full seeds ---------------------------------------


def test_log_overflow_degrades_to_full_seeds_with_identical_output(
    icfet, monkeypatch
):
    """A log that keeps overflowing its cap keeps bumping its epoch, so
    cells seed fully far more often: the fixpoint is the same, the work
    is not."""
    n, edges = random_edges(1)
    want = naive_closure(edges, LabelledGrammar(), icfet)
    _got, roomy = run_engine(n, edges, icfet, memory_budget=2 << 10)

    class CrampedLog(DeltaLog):
        def __init__(self, relevant_source, relevant_target, cap_rows=None):
            super().__init__(relevant_source, relevant_target, cap_rows=2)

    monkeypatch.setattr(computation, "DeltaLog", CrampedLog)
    got, cramped = run_engine(n, edges, icfet, memory_budget=2 << 10)
    assert got == want
    assert cramped.compositions_tried > roomy.compositions_tried


def test_resume_with_a_cold_log_seeds_fully_and_matches(
    icfet, tmp_path, monkeypatch
):
    """The log is not in the manifest: a run that dies after a few
    visits and is resumed starts with no cursors, full-seeds every cell
    it plans first and lands on the same edges as an uninterrupted
    run."""
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
    at_crash = {}

    def dying(self, complete=False):
        real(self, complete)
        if self.stats.checkpoints_written == 6:
            at_crash["visits"] = self.stats.pairs_processed
            at_crash["delta_seeded"] = self.stats.pairs_delta_seeded
            raise Crash  # after the sixth manifest is durable

    monkeypatch.setattr(GraphEngine, "_write_checkpoint", dying)
    with pytest.raises(Crash):
        engine().run(build_graph(n, edges))
    monkeypatch.setattr(GraphEngine, "_write_checkpoint", real)

    plans = []
    real_plan = DeltaLog.plan

    def recording(self, partitions, pair):
        plans.append(real_plan(self, partitions, pair))
        return plans[-1]

    monkeypatch.setattr(DeltaLog, "plan", recording)
    resumed = engine(resume=True).run(build_graph(n, edges))
    assert set(resumed.iter_edges()) == want
    stats = resumed.stats
    assert stats.pairs_processed > at_crash["visits"]  # counters carried over
    # No cursor survives the restart: the first plan after it has no
    # delta cell, so at least that visit seeded fully.
    assert plans and all(seed is None for seed in plans[0].values())
    assert (stats.pairs_delta_seeded - at_crash["delta_seeded"]
            < stats.pairs_processed - at_crash["visits"])


# -- cells: each composition once ----------------------------------------------


def test_a_workless_plan_retires_the_pair_without_loading_it(
    icfet, monkeypatch
):
    """The plan reads the log alone, so a pair it retires costs no load
    -- including pairs a relevant-source edge points into, whose cells
    were all closed since they last gained an edge."""
    loads = []
    real_load = PartitionStore.load

    def load(self, part):
        loads.append(part.index)
        return real_load(self, part)

    retired = []
    real_retire = GraphEngine._retire_if_dead

    def retire(self, pair):
        partitions = self._store.partitions
        joins = any(
            self._log._overlaps(p, partitions[q].lo, partitions[q].hi)
            for p in pair for q in pair
        )
        before = len(loads)
        if not real_retire(self, pair):
            return False
        retired.append((joins, len(loads) - before))
        return True

    monkeypatch.setattr(PartitionStore, "load", load)
    monkeypatch.setattr(GraphEngine, "_retire_if_dead", retire)
    n, edges = random_edges(0)
    got, stats = run_engine(n, edges, icfet, memory_budget=2 << 10)
    assert got == naive_closure(edges, LabelledGrammar(), icfet)
    assert len(retired) == stats.pairs_skipped > 0
    assert all(cost == 0 for _joins, cost in retired)
    assert any(joins for joins, _cost in retired)


def test_a_given_up_pair_moves_no_intra_cursor(icfet, monkeypatch):
    """With ``max_retries=0`` a pair whose load fails is given up at
    once.  It closed none of its cells -- not its healthy partner's
    intra cell either -- so no cursor of theirs may move: otherwise the
    partner's own pair is retired as closed and the partner never
    composes its own edges.  Here partition 0 (the low vertices of a
    forward DAG; at the default budget there are two partitions) fails
    every load after its own pair, and partition 1 never needed it."""
    n, edges = random_edges(3)

    def run(**opts):
        options = EngineOptions(witness_cap=UNCAPPED, **opts)
        engine = GraphEngine(icfet, LabelledGrammar(), options)
        return engine.run(build_graph(n, edges))

    clean = run()
    real_process = GraphEngine._process_pair

    def failing(self, i, j):
        if 0 in (i, j) and (i, j) != (0, 0):
            raise serialize.CorruptPartition("injected: partition 0")
        real_process(self, i, j)

    given_up = []
    real_mark = GraphEngine._mark_visited

    def mark(self, pair, closed=True):
        keys = [(p, p) for p in pair]
        before = [self._log._cursor.get(key) for key in keys]
        real_mark(self, pair, closed)
        if not closed:
            after = [self._log._cursor.get(key) for key in keys]
            given_up.append(before == after)

    monkeypatch.setattr(GraphEngine, "_process_pair", failing)
    monkeypatch.setattr(GraphEngine, "_mark_visited", mark)
    faulty = run(max_retries=0)
    assert len(faulty.store.partitions) == 2
    assert faulty.stats.pairs_quarantined == len(given_up) > 0
    assert all(given_up)
    lo = faulty.store.partitions[1].lo

    def healthy(result):
        return {e for e in result.iter_edges() if e[0] >= lo and e[1] >= lo}

    assert set(faulty.iter_edges()) != set(clean.iter_edges())
    assert healthy(faulty) == healthy(clean)


def test_closure_work_follows_the_graph_not_the_budget():
    """zookeeper 1 at 0.03 MiB (dozens of partitions, thousands of
    eligible pairs) and at 64 MiB (two partitions) print the same report
    from the same edges, and the small budget tries at most twice the
    compositions.  With one cursor per pair, a partition's own
    compositions were redone on the first visit of every pair that
    contained it: 11.4 times as many."""
    source = build_subject("zookeeper", scale=1.0).source
    fsms = [c.fsm for c in default_checkers()]

    def check(mib):
        options = GrappleOptions(
            engine=EngineOptions(memory_budget=int(mib * (1 << 20)))
        )
        run = Grapple(source, fsms, options).run()
        edges = [
            sorted(phase.engine_result.iter_edges())
            for phase in (run.alias_phase, run.dataflow_phase)
        ]
        return run.report.summary(), edges, run.stats

    small_report, small_edges, small = check(0.03)
    big_report, big_edges, big = check(64)
    assert small_report == big_report
    assert small_edges == big_edges
    assert small.pairs_skipped > small.pairs_processed > big.pairs_processed
    assert small.compositions_tried <= 2 * big.compositions_tried
