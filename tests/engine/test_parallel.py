"""Tests for the parallel partition-pair engine.

The serial engine is the correctness oracle: every parallel configuration
must converge to exactly the serial fixpoint (same edges, same encodings,
same warnings).  ``parallel_dispatch="fork"`` forces a real worker pool
even on single-CPU machines, so the wave protocol, the pickled task/result
round trip, and the coordinator's merge path are all exercised.
"""

from concurrent.futures import Future
from types import SimpleNamespace

import pytest

from repro import EngineOptions, Grapple, GrappleOptions, default_checkers
from repro.engine import parallel
from repro.engine.parallel import ParallelCoordinator, WaveResult, WaveTask
from repro.engine.scheduling import PairScheduler
from repro.engine.stats import EngineStats
from repro.workloads import build_subject


def _final_edges(run):
    """Canonical fixpoint of a Grapple run: both phases' full edge sets
    (with encodings) plus the reported warnings."""
    edges = frozenset(run.alias_phase.engine_result.iter_edges()) | frozenset(
        run.dataflow_phase.engine_result.iter_edges()
    )
    warnings = sorted(
        (w.checker, w.kind, w.site, w.state, w.line)
        for w in run.report.warnings
    )
    return edges, warnings


def _run_subject(source, workers, dispatch="auto"):
    options = GrappleOptions(
        engine=EngineOptions(
            memory_budget=4 << 20,
            workers=workers,
            parallel_dispatch=dispatch,
        )
    )
    fsms = [c.fsm for c in default_checkers()]
    return Grapple(source, fsms, options).run()


@pytest.mark.parametrize("subject_name", ["zookeeper", "hdfs"])
def test_parallel_matches_serial_fixpoint(subject_name):
    source = build_subject(subject_name, scale=0.4).source
    serial = _final_edges(_run_subject(source, workers=1))
    for workers in (2, 4):
        parallel = _final_edges(
            _run_subject(source, workers=workers, dispatch="fork")
        )
        assert parallel == serial, (
            f"{subject_name}: workers={workers} diverged from serial"
        )


def test_inline_dispatch_matches_serial_fixpoint():
    # "auto" on a single-CPU machine (and "inline" everywhere) runs the
    # wave protocol without a pool; it must still reach the same fixpoint.
    source = build_subject("zookeeper", scale=0.4).source
    serial = _final_edges(_run_subject(source, workers=1))
    inline = _final_edges(_run_subject(source, workers=2, dispatch="inline"))
    assert inline == serial


class _FakePartition:
    def __init__(self, version=0):
        self.version = version


class _FakeStore:
    def __init__(self, n):
        self.partitions = [_FakePartition() for _ in range(n)]


def test_select_wave_pairs_are_disjoint():
    scheduler = PairScheduler(_FakeStore(6))
    wave = scheduler.select_wave(10)
    assert wave, "fresh store must have eligible pairs"
    claimed: list = []
    for i, j in wave:
        claimed.extend({i, j})
    assert len(claimed) == len(set(claimed)), (
        f"partition appears in two pairs of one wave: {wave}"
    )


def test_select_wave_respects_width_and_keeps_skipped_pairs():
    scheduler = PairScheduler(_FakeStore(6))
    first = scheduler.select_wave(2)
    assert len(first) == 2
    # Pairs skipped for conflicts stay queued: repeatedly draining waves
    # eventually processes every pair exactly once.
    processed = list(first)
    for pair in first:
        scheduler.mark_processed(pair, scheduler.captured_versions(pair))
    while True:
        wave = scheduler.select_wave(100)
        if not wave:
            break
        processed.extend(wave)
        for pair in wave:
            scheduler.mark_processed(pair, scheduler.captured_versions(pair))
    all_pairs = {(i, j) for i in range(6) for j in range(i, 6)}
    assert len(processed) == len(set(processed))
    assert set(processed) == all_pairs


def test_select_wave_serial_order_prefix():
    # Wave selection considers pairs in the serial processing order, so a
    # width-1 wave is exactly the serial engine's next pair.
    scheduler = PairScheduler(_FakeStore(3))
    order = []
    while True:
        wave = scheduler.select_wave(1)
        if not wave:
            break
        order.append(wave[0])
        scheduler.mark_processed(wave[0], scheduler.captured_versions(wave[0]))
    assert order == sorted(order)


class _StealQueue:
    """Scheduler stand-in: ``select_wave(1)`` hands out the first queued
    candidate disjoint from ``busy``, so which pair a steal selects is
    sensitive to the busy set it runs under."""

    def __init__(self, candidates):
        self.candidates = list(candidates)

    def select_wave(self, width, planner=None, busy=None):
        busy = busy or set()
        for n, pair in enumerate(self.candidates):
            if pair[0] not in busy and pair[1] not in busy:
                return [self.candidates.pop(n)]
        return []

    def mark_processed(self, pair, captured):
        pass

    def captured_versions(self, pair):
        return ()


class _StealHarness(ParallelCoordinator):
    """ParallelCoordinator shorn of engine/store/pool: just enough state
    for ``_stream_wave``, with futures completed by a scripted ``wait``
    instead of real workers."""

    def __init__(self, candidates, procs):
        self.engine = SimpleNamespace(
            _scheduler=_StealQueue(candidates),
            _deadline=None,
            _retire_if_dead=lambda pair: False,
        )
        self.store = SimpleNamespace(partitions=[])
        self.stats = EngineStats()
        self.options = SimpleNamespace(max_retries=0)
        self._procs = procs
        self._steal = True
        self._planner = None
        self._hub = None
        self.by_future: dict = {}
        self.stolen: list = []
        self.absorbed: list = []

    def _stage_pair(self, task):
        pass

    def _submit(self, task):
        future = Future()
        self.by_future[future] = task
        return future

    def _attempt_inline(self, task):
        return WaveResult(pair=task.pair, applied=True)


def _scripted_wait(harness, script):
    """A ``futures_wait`` whose completion order follows ``script`` (a
    list of seq batches); once the script runs dry, everything still
    pending completes at once."""

    def fake_wait(fs, return_when=None):
        step = script.pop(0) if script else None
        done = set()
        for future in fs:
            if step is None or harness.by_future[future].seq in step:
                future.set_result(WaveResult(pair=harness.by_future[future].pair))
                done.add(future)
        if not done:  # scripted seqs already harvested: drain the rest
            for future in fs:
                future.set_result(WaveResult(pair=harness.by_future[future].pair))
                done.add(future)
        return done, set(fs) - done

    return fake_wait


def test_steal_schedule_immune_to_completion_timing(monkeypatch):
    """Steal refills must be a pure function of the absorb count: runs
    whose pooled tasks complete in different wall-clock orders (one
    staggered, one all-at-once) must dispatch the identical steal
    sequence.  Free slots are counted against the dispatched-but-
    unabsorbed set -- gating on harvested futures instead would fire
    steals at timing-dependent points, under different busy sets, and
    pick different pairs (here: burst completion would steal (4, 5)
    before (2, 9))."""
    wave = [(0, 1), (8, 9), (2, 3), (6, 7)]
    candidates = [(2, 9), (4, 5)]

    def run(script):
        harness = _StealHarness(candidates, procs=2)
        monkeypatch.setattr(
            parallel, "futures_wait", _scripted_wait(harness, script)
        )

        def build_task(pair, seq, seed):
            harness.stolen.append(pair)
            return WaveTask(pair=pair, parts=None, seq=seq)

        tasks = [
            WaveTask(pair=pair, parts=None, seq=seq)
            for seq, pair in enumerate(wave)
        ]
        harness._stream_wave(
            tasks, harness.absorbed.append, build_task, lambda: [],
        )
        return harness

    staggered = run([[1], [2], [3]])
    burst = run([[1, 2, 3]])
    assert staggered.stolen == burst.stolen == [(2, 9), (4, 5)]
    assert (
        [r.pair for r in staggered.absorbed]
        == [r.pair for r in burst.absorbed]
        == wave + [(2, 9), (4, 5)]
    )
    assert staggered.stats.pairs_stolen == burst.stats.pairs_stolen == 2


def test_engine_stats_merge_sums_times_and_counters():
    total = EngineStats(io_time=1.0, pairs_processed=2, cache_hits=5)
    worker = EngineStats(
        io_time=0.5,
        encode_time=0.25,
        smt_time=0.125,
        compute_time=2.0,
        feasibility_time=0.75,
        pairs_processed=3,
        new_edges=7,
        compositions_tried=11,
        constraints_solved=13,
        constraint_queries=17,
        cache_hits=19,
        infeasible_dropped=23,
        encoding_overflow_dropped=29,
    )
    total.merge(worker)
    assert total.io_time == 1.5
    assert total.encode_time == 0.25
    assert total.smt_time == 0.125
    assert total.compute_time == 2.0
    assert total.feasibility_time == 0.75
    assert total.pairs_processed == 5
    assert total.new_edges == 7
    assert total.compositions_tried == 11
    assert total.constraints_solved == 13
    assert total.constraint_queries == 17
    assert total.cache_hits == 24
    assert total.infeasible_dropped == 23
    assert total.encoding_overflow_dropped == 29
    # Coordinator-side counters are not summed across workers.
    assert total.waves == 0 and total.pairs_skipped == 0
