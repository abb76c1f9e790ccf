"""Crash-recovery tests: partition rebuilds, pending rows and the
checkpoint that writes them, retry exhaustion, seeded fault plans, and
the kill -9 / --resume round trip."""

import json
import os
import subprocess
import sys

import pytest

from repro.cfet import encoding as enc
from repro.cfet.icfet import build_icfet
from repro.engine import checkpoint as ckpt
from repro.engine import serialize
from repro.engine.columnar import ROW_BYTES, EdgeColumns
from repro.engine.computation import EngineOptions, GraphEngine
from repro.engine.partition import ENCODING_LOG, PartitionStore
from repro.grammar.cfg_grammar import Grammar
from repro.graph.model import ProgramGraph
from repro.lang.parser import parse_program
from repro.lang.transform import lower_exceptions, normalize_calls, unroll_loops

from .test_closure_oracle import (
    UNCAPPED,
    LabelledGrammar,
    build_graph,
    naive_closure,
    random_edges,
)
from .test_computation import sample_icfet


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


def _store(tmp_path, **kw):
    store = PartitionStore(str(tmp_path), memory_budget=1 << 20,
                           cache_slots=2, **kw)
    store.initialize(
        {0: {(1, 0): {(("I", "f", 0, 0),)}},
         1: {(2, 0): {(("I", "g", 0, 0),)}}},
        num_vertices=4, min_partitions=1,
    )
    store.flush()  # a new partition is resident; the file comes on demand
    return store


# -- partition rebuild ---------------------------------------------------------


def test_rebuild_from_cached_copy(tmp_path):
    store = _store(tmp_path)
    part = store.partitions[0]
    store.load(part)  # populate the write-back cache
    assert part.index in store._cache
    with open(part.path, "wb") as f:
        f.write(b"NOPE" + b"\x00" * 8)  # torn write hit the file
    assert store.rebuild(part) is True
    assert store.stats.partitions_rebuilt == 1
    store._cache.clear()
    store._dirty.clear()
    assert store.load(part).to_dict()  # file is readable again


def test_rebuild_from_torn_rename_temp(tmp_path):
    store = _store(tmp_path)
    part = store.partitions[0]
    good = open(part.path, "rb").read()
    # A torn rename: the new bytes reached <path>.tmp, the switch-over
    # never happened, and (say) the cached copy was since evicted...
    serialize.atomic_write_bytes(part.path, good, replace=False)
    with open(part.path, "wb") as f:
        f.write(b"NOPE")
    store._cache.clear()
    store._dirty.clear()
    assert store.rebuild(part) is True
    assert open(part.path, "rb").read() == good
    assert store.load(part).to_dict()


def test_rebuild_fails_with_no_surviving_copy(tmp_path):
    store = _store(tmp_path)
    part = store.partitions[0]
    store._cache.clear()
    store._dirty.clear()
    with open(part.path, "wb") as f:
        f.write(b"NOPE")
    assert store.rebuild(part) is False
    assert store.stats.partitions_rebuilt == 0


# -- pending rows --------------------------------------------------------------


def test_an_arrival_for_an_unloaded_partition_folds_once_in_arrival_order(
    tmp_path, monkeypatch
):
    """Edges for a partition outside the cache wait in memory -- nothing
    is written for them -- and the next load inserts each exactly once,
    in the order they arrived; a later load finds nothing left."""
    store = _store(tmp_path)
    part = store.partitions[0]
    store._cache.clear()  # on disk only
    writes, files = store.stats.partition_writes, sorted(os.listdir(tmp_path))
    eid = store.table.intern((("I", "d", 0, 0),))
    arrivals = [
        {1: {(3, 0): {eid}}, 0: {(3, 0): {eid}}},
        {0: {(1, 0): {0}}, 3: {(2, 1): {eid}}},  # (0, 1, 0, 0) is on disk
    ]
    assert [store.append_delta(part, chunk) for chunk in arrivals] == [2, 2]
    assert store.stats.pending_rows == 4
    assert store.stats.partition_writes == writes
    assert sorted(os.listdir(tmp_path)) == files

    inserted = []
    real_insert = EdgeColumns.insert

    def insert(self, s, d, l, e):
        inserted.append(((s, d, l, e), real_insert(self, s, d, l, e)))
        return inserted[-1][1]

    monkeypatch.setattr(EdgeColumns, "insert", insert)
    cols = store.load(part)
    assert inserted == [
        ((1, 3, 0, eid), True), ((0, 3, 0, eid), True),
        ((0, 1, 0, 0), False), ((3, 2, 1, eid), True),
    ]
    assert part.edge_count == cols.edge_count == 5
    del inserted[:]
    store.load(part)  # resident
    store.flush()
    store._cache.clear()
    reread = {row for row in store.load(part).iter_rows()}
    assert inserted == []
    assert {(1, 3, 0, eid), (0, 3, 0, eid), (3, 2, 1, eid)} <= reread


def test_a_pending_list_past_its_share_of_the_budget_is_written(tmp_path):
    """Pending rows may not outgrow what their partition may hold: past
    half the budget they are folded into the partition file at once,
    still outside the cache."""
    store = PartitionStore(str(tmp_path), memory_budget=4 * ROW_BYTES,
                           cache_slots=2)
    store.initialize({0: {(1, 0): {(("I", "f", 0, 0),)}}}, num_vertices=4,
                     min_partitions=1)
    store.flush()
    store._cache.clear()
    part, writes = store.partitions[0], store.stats.partition_writes
    eid = store.table.intern((("I", "d", 0, 0),))
    store.append_delta(part, {0: {(2, 0): {eid}}, 1: {(2, 0): {eid}}})
    assert store.stats.partition_writes == writes  # at the share: waits
    store.append_delta(part, {2: {(3, 0): {eid}}})
    assert store.stats.partition_writes == writes + 1
    assert not store._pending and part.index not in store._cache
    rows = {(s, d) for s, d, _l, _e in store.load(part).iter_rows()}
    assert rows == {(0, 1), (0, 2), (1, 2), (2, 3)}


def _manifest_rows(phase_dir):
    """Every row of the partition files a phase's manifest names."""
    manifest = ckpt.load_manifest(str(phase_dir))
    rows = set()
    for desc in manifest["partitions"]:
        parsed = serialize.parse_columnar(
            (phase_dir / desc["path"]).read_bytes()
        )
        rows.update(zip(parsed.src, parsed.dst, parsed.label, parsed.enc))
    return rows


def test_a_durable_checkpoint_leaves_no_pending_row_outside_its_files(
    tmp_path, monkeypatch
):
    """After every checkpoint of a durable run, every row that ever
    waited in memory is in a file the manifest names, and none waits
    any more."""
    pending = []
    real_append = PartitionStore.append_delta

    def append_delta(self, part, chunk):
        if part.index not in self._cache:
            pending.extend(
                (src, dst, label_id, eid)
                for src, targets in chunk.items()
                for (dst, label_id), eids in targets.items()
                for eid in eids
            )
        return real_append(self, part, chunk)

    folded = []
    real_checkpoint = GraphEngine._write_checkpoint

    def checkpoint(self, complete=False):
        waiting = bool(self._store._pending)
        real_checkpoint(self, complete)
        assert not self._store._pending
        assert set(pending) <= _manifest_rows(tmp_path)
        folded.append(waiting)

    monkeypatch.setattr(PartitionStore, "append_delta", append_delta)
    monkeypatch.setattr(GraphEngine, "_write_checkpoint", checkpoint)
    options = EngineOptions(workdir=str(tmp_path), memory_budget=1 << 10,
                            witness_cap=UNCAPPED)
    engine = GraphEngine(sample_icfet(), LabelledGrammar(), options)
    engine.run(build_graph(*random_edges(1, n=24)))
    assert any(folded), "no checkpoint found pending rows to fold"


@pytest.mark.parametrize("owner, name, nth, seed", [
    (PartitionStore, "_evict", 3, 6),
    (GraphEngine, "_flush_outbound", 7, 7),
])
def test_a_crash_between_checkpoints_resumes_to_the_same_edges(
    tmp_path, monkeypatch, owner, name, nth, seed
):
    """Die in the middle of a pair -- after an eviction rewrote a
    partition, or after arrivals joined pending rows -- and resume: the
    files the last manifest names still hold the checkpoint's state, so
    the resume reaches the uninterrupted closure."""
    n, edges = random_edges(seed, n=30)
    want = naive_closure(edges, LabelledGrammar(), sample_icfet())

    class Crash(Exception):
        pass

    real, calls = getattr(owner, name), []

    def dying(self, *args):
        out = real(self, *args)
        calls.append(1)
        if len(calls) == nth:
            raise Crash
        return out

    def engine(**opts):
        options = EngineOptions(workdir=str(tmp_path), memory_budget=2 << 10,
                                witness_cap=UNCAPPED, **opts)
        return GraphEngine(sample_icfet(), LabelledGrammar(), options)

    monkeypatch.setattr(owner, name, dying)
    with pytest.raises(Crash):
        engine().run(build_graph(n, edges))
    monkeypatch.setattr(owner, name, real)
    assert ckpt.load_manifest(str(tmp_path))["complete"] is False
    resumed = engine(resume=True).run(build_graph(n, edges))
    assert set(resumed.iter_edges()) == want


# -- retry / quarantine --------------------------------------------------------


def test_retry_exhaustion_quarantines_pair(tmp_path, icfet, capsys):
    options = EngineOptions(
        workdir=str(tmp_path), memory_budget=1 << 20, max_retries=1
    )
    engine = GraphEngine(icfet, ChainGrammar(), options)
    engine.run(chain(12))
    store = engine._store
    part = store.partitions[0]
    # Damage partition 0 beyond recovery: no cached copy, no temp file.
    store._cache.clear()
    store._dirty.clear()
    with open(part.path, "wb") as f:
        f.write(b"NOPE")
    try:
        os.remove(part.path + ".tmp")
    except FileNotFoundError:
        pass

    pair = (part.index, part.index)
    engine._attempt_pair(pair)
    err = capsys.readouterr().err
    assert "unrecoverable" in err
    assert "giving up on partition pair" in err
    assert engine.stats.retries == 1
    assert engine.stats.pairs_quarantined == 1
    assert engine.stats.partitions_quarantined == 1
    assert part.index in engine._quarantined_parts
    # Further pairs touching the quarantined partition return silently.
    engine._attempt_pair(pair)
    assert engine.stats.pairs_quarantined == 1


def test_seeded_fault_plan_self_heals(tmp_path, icfet):
    """A run under write faults must finish and compute the same closure
    as a clean run (the store re-caches damaged partitions and rewrites
    them on the next flush)."""
    clean = GraphEngine(
        icfet, ChainGrammar(), EngineOptions(memory_budget=1 << 20)
    ).run(chain(16))
    want = {(s, d) for s, d, _l, _e in clean.iter_edges()}

    options = EngineOptions(
        workdir=str(tmp_path), memory_budget=1 << 20,
        fault_plan="short_write@partition-write:2,"
                   "torn_rename@partition-write:3",
    )
    faulted = GraphEngine(icfet, ChainGrammar(), options).run(chain(16))
    got = {(s, d) for s, d, _l, _e in faulted.iter_edges()}
    assert got == want


# -- kill -9 and resume --------------------------------------------------------

_SUBJECT_PROG = """\
import sys
from repro import Grapple, GrappleOptions, EngineOptions
from repro.checkers.checker import ALL_CHECKERS, Checker
from repro.workloads import build_subject

workdir, resume, fault_plan, budget, name, scale = sys.argv[1:7]
subject = build_subject(name, scale=float(scale))
options = GrappleOptions(
    engine=EngineOptions(
        workdir=workdir,
        memory_budget=int(float(budget) * (1 << 20)),
        resume=resume == "1",
        fault_plan=fault_plan or None,
    )
)
fsms = [Checker.by_name(n).fsm for n in ALL_CHECKERS]
run = Grapple(subject.source, fsms, options).run()
for warning in run.report.warnings:
    print(warning)
print(run.report.summary())
"""


def _subject_run(tmp_path, workdir, *, resume=False, fault_plan="",
                 budget=64, subject=("zookeeper", 0.3)):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(sys.path),
        PYTHONHASHSEED="0",  # cross-process determinism for the diff
    )
    return subprocess.run(
        [sys.executable, "-c", _SUBJECT_PROG, str(workdir),
         "1" if resume else "0", fault_plan, str(budget), subject[0],
         str(subject[1])],
        env=env, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.slow
def test_kill9_resume_matches_uninterrupted_run(tmp_path):
    """SIGKILL a closure at a seeded checkpoint, resume it -- the
    arrival log is not persisted, so every eligible pair seeds fully --
    and require byte-identical warnings and TP/FP accounting."""
    workdir = tmp_path / "wd"
    killed = _subject_run(
        tmp_path, workdir, fault_plan="kill_run@checkpoint:2"
    )
    assert killed.returncode == -9, killed.stderr[-2000:]
    manifest = json.load(open(workdir / "alias" / "checkpoint.json"))
    # The partition files hold ids; the killed run's log defines them.
    log = workdir / "alias" / ENCODING_LOG
    at_kill = log.read_bytes()
    payloads, _dropped, corrupt = serialize.split_frames(at_kill)
    assert not corrupt
    assert manifest["encodings"] <= sum(
        len(serialize.decode_encodings(payload)) for payload in payloads
    )

    resumed = _subject_run(tmp_path, workdir, resume=True)
    assert resumed.returncode == 0, resumed.stderr[-2000:]
    # Killed in the alias phase: that one resumes, the other had not
    # begun and says so.
    assert f"checkpoint in {workdir / 'alias'}" not in resumed.stderr
    assert f"checkpoint in {workdir / 'dataflow'} (none)" in resumed.stderr
    # Append-only: every id logged before the kill still decodes to the
    # tuple it did then.
    assert log.read_bytes().startswith(at_kill)

    clean = _subject_run(tmp_path, tmp_path / "wd-clean")
    assert clean.returncode == 0, clean.stderr[-2000:]
    assert resumed.stdout == clean.stdout


_ORACLE_PROG = """\
import sys
from repro.engine.computation import EngineOptions, GraphEngine
from tests.engine.test_closure_oracle import (
    UNCAPPED, LabelledGrammar, build_graph, random_edges,
)
from tests.engine.test_computation import sample_icfet

workdir, resume, fault_plan = sys.argv[1:4]
real = GraphEngine._write_checkpoint


def announced(self, complete=False):
    # How many partitions hold pending rows this checkpoint must fold.
    print("checkpoint", len(self._store._pending), file=sys.stderr,
          flush=True)
    real(self, complete)


GraphEngine._write_checkpoint = announced
options = EngineOptions(
    workdir=workdir, memory_budget=1 << 10, witness_cap=UNCAPPED,
    resume=resume == "1", fault_plan=fault_plan or None,
)
engine = GraphEngine(sample_icfet(), LabelledGrammar(), options)
graph = build_graph(*random_edges(1, n=24))
for edge in sorted(engine.run(graph).iter_edges()):
    print(edge)
"""


def _oracle_run(workdir, *, resume=False, fault_plan=""):
    """A closure-oracle random graph under a 1 KiB budget, in a process
    of its own: ``(run, pending partitions per checkpoint)``."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(sys.path),
        PYTHONHASHSEED="0",
    )
    run = subprocess.run(
        [sys.executable, "-c", _ORACLE_PROG, str(workdir),
         "1" if resume else "0", fault_plan],
        env=env, capture_output=True, text=True, timeout=600,
    )
    pending = [
        int(line.split()[1]) for line in run.stderr.splitlines()
        if line.startswith("checkpoint ")
    ]
    return run, pending


def test_kill9_resume_after_a_checkpoint_that_folded_pending_rows(tmp_path):
    """SIGKILL right after a checkpoint whose flush folded pending rows
    into partition files: those rows are in the files the manifest
    names, nothing else holds them, and the resume lands on the
    uninterrupted run's edges."""
    clean, pending = _oracle_run(tmp_path / "wd-clean")
    assert clean.returncode == 0, clean.stderr[-2000:]
    # The last checkpoint that folds pending rows: the most work to lose.
    nth = max(k for k, count in enumerate(pending, 1) if count)
    killed, at_kill = _oracle_run(
        tmp_path / "wd", fault_plan=f"kill_run@checkpoint:{nth}"
    )
    assert killed.returncode == -9, killed.stderr[-2000:]
    assert len(at_kill) == nth and at_kill[-1] > 0
    assert ckpt.load_manifest(str(tmp_path / "wd"))["complete"] is False
    resumed, _ = _oracle_run(tmp_path / "wd", resume=True)
    assert resumed.returncode == 0, resumed.stderr[-2000:]
    assert resumed.stdout == clean.stdout
