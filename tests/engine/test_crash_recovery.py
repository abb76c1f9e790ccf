"""Crash-recovery tests: partition rebuilds, delta-tail tolerance, retry
exhaustion, seeded fault plans, and the kill -9 / --resume round trip."""

import json
import os
import subprocess
import sys

import pytest

from repro.cfet import encoding as enc
from repro.cfet.icfet import build_icfet
from repro.engine import serialize
from repro.engine.computation import EngineOptions, GraphEngine
from repro.engine.partition import ENCODING_LOG, PartitionStore
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
    table_driven = True

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


# -- delta-file damage tolerance -----------------------------------------------


def _delta_payload(store, src, dst):
    """One spilled chunk ``src -> dst`` as the store writes it: ids of
    its own table in the partition-file layout."""
    chunk = {src: {(dst, 0): {store.table.intern((("I", "d", 0, 0),))}}}
    return serialize.encode_partition(chunk, len(store.table))


def test_truncated_delta_tail_dropped_on_load(tmp_path):
    """A crash mid-append leaves a short trailing frame; the intact
    frames before it must still fold, and the run must not abort."""
    store = _store(tmp_path)
    store.flush()
    part = store.partitions[0]
    intact = serialize.encode_frame(_delta_payload(store, 0, 3))
    torn = serialize.encode_frame(_delta_payload(store, 1, 3))[:-3]
    with open(part.delta_path, "wb") as f:
        f.write(intact + torn)
    store._cache.clear()
    cols = store.load(part)
    assert (0, 3) in {(s, d) for s, d, _l, _e in cols.iter_rows()}
    assert store.stats.delta_frames_dropped == 1
    assert store.stats.delta_frames_corrupt == 0


def test_corrupt_delta_frame_skipped_and_version_bumped(tmp_path):
    store = _store(tmp_path)
    store.flush()
    part = store.partitions[0]
    version_before = part.version
    bad = bytearray(serialize.encode_frame(_delta_payload(store, 0, 3)))
    bad[-1] ^= 0xFF
    good = serialize.encode_frame(_delta_payload(store, 1, 3))
    with open(part.delta_path, "wb") as f:
        f.write(bytes(bad) + good)
    store._cache.clear()
    cols = store.load(part)
    rows = {(s, d) for s, d, _l, _e in cols.iter_rows()}
    assert (1, 3) in rows  # the good frame survived the bad one
    assert store.stats.delta_frames_corrupt == 1
    # The lost edges must be re-derived: the version bump makes every
    # pair touching this partition eligible again.
    assert part.version == version_before + 1


def test_delta_frame_naming_ids_the_table_never_issued_is_salvaged(tmp_path):
    """A frame that passes its CRC but holds ids of some other table is
    damage like a CRC mismatch, not rows to adopt."""
    store = _store(tmp_path)
    store.flush()
    part = store.partitions[0]
    good = _delta_payload(store, 1, 3)
    foreign = serialize.encode_partition({0: {(3, 0): {len(store.table)}}},
                                         len(store.table) + 1)
    with open(part.delta_path, "wb") as f:
        f.write(serialize.encode_frame(foreign) + serialize.encode_frame(good))
    store._cache.clear()
    rows = {(s, d) for s, d, _l, _e in store.load(part).iter_rows()}
    assert (1, 3) in rows and (0, 3) not in rows
    assert store.stats.delta_frames_corrupt == 1


def test_delta_file_survives_until_fold_is_durable(tmp_path):
    """The delta file may only disappear after the folded partition was
    atomically rewritten -- never at fold time."""
    store = _store(tmp_path)
    store.flush()
    part = store.partitions[0]
    with open(part.delta_path, "wb") as f:
        f.write(serialize.encode_frame(_delta_payload(store, 0, 3)))
    store._cache.clear()
    store.load(part)  # folds the delta into the cached columns
    assert os.path.exists(part.delta_path)
    store.flush()  # durable rewrite: now (and only now) it may go
    assert not os.path.exists(part.delta_path)


def test_salvaged_delta_file_is_retired_by_the_next_write(tmp_path):
    """A delta file none of whose frames survived used to stay on disk
    for good: every later load salvaged it again, counting the same
    damage, bumping the version and resetting the arrival log."""
    store = _store(tmp_path)
    store.flush()
    part = store.partitions[0]
    bad = bytearray(serialize.encode_frame(_delta_payload(store, 0, 3)))
    bad[-1] ^= 0xFF
    with open(part.delta_path, "wb") as f:
        f.write(bytes(bad))
    store._cache.clear()
    store.load(part)
    assert store.stats.delta_frames_corrupt == 1
    assert store.lost_frames == {part.index}  # the engine repairs it
    version = part.version
    store.flush()
    assert not os.path.exists(part.delta_path)
    store._cache.clear()
    store.load(part)
    assert store.stats.delta_frames_corrupt == 1
    assert part.version == version


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
    if store.prefetch is not None:
        store.prefetch.invalidate(part.index)

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
                   "torn_rename@partition-write:3,"
                   "bad_frame@delta-append:1",
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

workdir, resume, fault_plan, budget = sys.argv[1:5]
subject = build_subject("zookeeper", scale=0.3)
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
                 budget=64):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(sys.path),
        PYTHONHASHSEED="0",  # cross-process determinism for the diff
    )
    return subprocess.run(
        [sys.executable, "-c", _SUBJECT_PROG, str(workdir),
         "1" if resume else "0", fault_plan, str(budget)],
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


@pytest.mark.slow
def test_kill9_resume_reads_delta_frames_written_before_the_kill(tmp_path):
    """The same round trip under a budget that spills: the killed
    checkpoint leaves delta frames on disk, so the resume folds frames
    the first process wrote.  Every id in them must already be in the
    encoding log (log frame before delta frame)."""
    workdir = tmp_path / "wd"
    # At 0.25 MiB the alias phase's 7th checkpoint finds a non-empty
    # delta file (zookeeper scale 0.3).
    killed = _subject_run(
        tmp_path, workdir, fault_plan="kill_run@checkpoint:7", budget=0.25
    )
    assert killed.returncode == -9, killed.stderr[-2000:]
    alias = workdir / "alias"
    payloads, _dropped, corrupt = serialize.split_frames(
        (alias / ENCODING_LOG).read_bytes()
    )
    assert not corrupt
    logged = sum(
        len(serialize.decode_encodings(payload)) for payload in payloads
    )
    frames = 0
    for desc in json.load(open(alias / "checkpoint.json"))["partitions"]:
        delta = alias / desc["delta_path"]
        if not delta.exists():
            continue
        deltas, dropped, corrupt = serialize.split_frames(delta.read_bytes())
        assert (dropped, corrupt) == (0, 0)
        for payload in deltas:
            enc = serialize.decode_partition(payload).enc
            assert enc and max(enc) < logged
            frames += 1
    assert frames

    resumed = _subject_run(tmp_path, workdir, resume=True, budget=0.25)
    assert resumed.returncode == 0, resumed.stderr[-2000:]
    clean = _subject_run(tmp_path, tmp_path / "wd-clean", budget=0.25)
    assert clean.returncode == 0, clean.stderr[-2000:]
    assert resumed.stdout == clean.stdout
