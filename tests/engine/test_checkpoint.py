"""Tests for checkpoint manifests and --resume (repro.engine.checkpoint)."""

import hashlib
import json
import os
import re

import pytest

from repro import Checker, EngineOptions, Grapple, GrappleOptions
from repro.baselines.string_constraints import StringConstraintEngine
from repro.checkers.checker import Checker
from repro.engine import checkpoint as ckpt
from repro.engine import serialize
from repro.engine.computation import GraphEngine
from repro.engine.partition import ENCODING_LOG
from repro.workloads import build_subject

CHECKER = "io"


def _run(workdir, *, resume=False, scale=0.2, engine_factory=GraphEngine,
         **engine_kw):
    subject = build_subject("zookeeper", scale=scale)
    options = GrappleOptions(
        engine=EngineOptions(
            workdir=str(workdir) if workdir is not None else None,
            resume=resume,
            **engine_kw,
        )
    )
    fsm = Checker.by_name(CHECKER).fsm
    return Grapple(subject.source, [fsm], options,
                   engine_factory=engine_factory).run()


def _reopen(workdir):
    """Mark both phases' manifests incomplete, so a resume re-enters the
    closure loop instead of adopting the finished result wholesale."""
    for phase in ("alias", "dataflow"):
        path = workdir / phase / ckpt.MANIFEST
        manifest = json.loads(path.read_text())
        manifest["complete"] = False
        path.write_text(json.dumps(manifest))


def _logged(phase_dir):
    """``(encodings, frame end offsets)`` of a phase's encoding log; the
    log must be whole."""
    data = (phase_dir / ENCODING_LOG).read_bytes()
    payloads, dropped, corrupt = serialize.split_frames(data)
    assert (dropped, corrupt) == (0, 0)
    encodings, ends, end = [], [], 0
    for payload in payloads:
        encodings += serialize.decode_encodings(payload)
        end += serialize.FRAME_HEADER_BYTES + len(payload)
        ends.append((len(encodings), end))
    assert end == len(data)
    return encodings, ends


def _warnings(run):
    return list(run.report.warnings)


def test_run_writes_complete_manifest_per_phase(tmp_path):
    run = _run(tmp_path)
    assert run.stats.checkpoints_written > 0
    for phase in ("alias", "dataflow"):
        manifest = ckpt.load_manifest(str(tmp_path / phase))
        assert manifest is not None, phase
        assert manifest["complete"] is True
        assert manifest["phase"] == phase
        assert manifest["partitions"]
        assert manifest["stats"]["pairs_processed"] > 0
        # Partition paths are workdir-relative (the directory can move).
        for desc in manifest["partitions"]:
            assert "/" not in desc["path"]


def test_no_workdir_means_no_checkpoints(tmp_path):
    run = _run(None)
    assert run.stats.checkpoints_written == 0


def test_resume_from_complete_manifest_matches(tmp_path):
    first = _run(tmp_path)
    again = _run(tmp_path, resume=True)
    assert [w for w in again.report.warnings] == [
        w for w in first.report.warnings
    ]
    # The restored stats mirror the original run's (the closure itself
    # was skipped, so no new counters accumulated past them).
    assert again.stats.pairs_processed == first.stats.pairs_processed
    assert again.stats.edges_after == first.stats.edges_after


def test_resume_refuses_changed_config(tmp_path):
    _run(tmp_path)
    with pytest.raises(ckpt.CheckpointMismatch):
        _run(tmp_path, resume=True, witness_cap=1)


def test_interval_config_strings_are_the_previous_builds():
    """The checkpoint digest and the root-result config keep the keys of
    the options that became ``MIN_PARTITIONS`` and engine class
    attributes, so an interval run's workdirs and persisted root tables
    from before the move are still adopted."""
    engine = GraphEngine(None, None, EngineOptions())
    assert ckpt.config_digest(engine) == (
        "c0847f7ab8fac8912e388534797e21c35ab8bcd75f69236553ead1fcc5b6f2d3"
    )
    engine = GraphEngine(None, None, EngineOptions(
        memory_budget=1 << 20, witness_cap=5, path_sensitive=False,
    ))
    assert ckpt.config_digest(engine) == (
        "0f81821ef935e615fa476ab1fa0479ad0c92a8742dc79cfd455d4520a890160a"
    )
    config = Grapple("func main() { }", [Checker.by_name("io").fsm])._config()
    assert config.startswith(
        '[2, 24, 500000, true, 3, true, "interval", 1048576, [["io", '
    )
    assert hashlib.sha256(config.encode()).hexdigest() == (
        "c70743e8a6db99912a6b2a9cd558eac722a92a9e6bac1e8ee89b3e1861d554fc"
    )


def test_interval_resume_refuses_a_string_engine_manifest(tmp_path):
    _run(tmp_path, scale=0.05, engine_factory=StringConstraintEngine)
    with pytest.raises(ckpt.CheckpointMismatch):
        _run(tmp_path, resume=True, scale=0.05)


def test_resume_refuses_vertex_digest_mismatch(tmp_path):
    """A manifest from a different subject (here: a doctored digest --
    the front end's relevance slicing makes cosmetic source edits
    converge to the same graph) must be refused."""
    _run(tmp_path)
    path = tmp_path / "alias" / ckpt.MANIFEST
    manifest = json.loads(path.read_text())
    manifest["vertices"] = "0" * 64
    path.write_text(json.dumps(manifest))
    with pytest.raises(ckpt.CheckpointMismatch):
        _run(tmp_path, resume=True)


def test_missing_manifest_is_fresh_run(tmp_path):
    run = _run(tmp_path, resume=True)  # nothing to resume from
    assert run.stats.pairs_processed > 0


def test_garbage_manifest_is_fresh_run(tmp_path):
    """Malformed text, nesting that exhausts the parser (RecursionError,
    not ValueError) and a non-object top level are all "no manifest"."""
    for garbage in ("{not json", "[" * 200_000, "[]"):
        _run(tmp_path)
        for phase in ("alias", "dataflow"):
            with open(tmp_path / phase / ckpt.MANIFEST, "w") as f:
                f.write(garbage)
        run = _run(tmp_path, resume=True)
        assert run.stats.pairs_processed > 0


def test_fresh_run_clears_stale_workdir_state(tmp_path):
    """Re-running *without* --resume in a reused workdir must not fold
    a previous run's partition or delta files into the new run."""
    first = _run(tmp_path)
    again = _run(tmp_path)  # resume=False: start over in the same dir
    assert [w for w in again.report.warnings] == [
        w for w in first.report.warnings
    ]


def test_delta_size_mismatch_bumps_version(tmp_path):
    _run(tmp_path)
    phase_dir = str(tmp_path / "dataflow")
    manifest = ckpt.load_manifest(phase_dir)
    desc = manifest["partitions"][0]
    # Simulate frames appended after the manifest was written.
    with open(os.path.join(phase_dir, desc["delta_path"]), "ab") as f:
        f.write(b"\x01")

    class StoreStub:
        workdir = phase_dir
        partitions = []

    store = StoreStub()
    ckpt.restore_store(manifest, store)
    assert store.partitions[0].version == desc["version"] + 1


def test_label_table_roundtrips_tuples(tmp_path):
    _run(tmp_path)
    manifest = ckpt.load_manifest(str(tmp_path / "dataflow"))
    labels = manifest["labels"]
    assert labels  # JSON lists stand in for tuples...
    restored = [ckpt._untuple(label) for label in labels]
    assert all(
        not isinstance(label, list) or isinstance(restored[i], tuple)
        for i, label in enumerate(labels)
    )


def test_manifest_is_valid_json_with_format_tag(tmp_path):
    _run(tmp_path)
    with open(tmp_path / "alias" / ckpt.MANIFEST) as f:
        manifest = json.load(f)
    assert manifest["format"] == ckpt.FORMAT


def test_prune_removes_only_unreferenced_engine_files(tmp_path):
    run = _run(tmp_path)
    phase_dir = tmp_path / "dataflow"
    manifest = ckpt.load_manifest(str(phase_dir))
    referenced = {d["path"] for d in manifest["partitions"]}
    referenced |= {d["delta_path"] for d in manifest["partitions"]}
    # Strew superseded garbage: orphaned partition/delta files, atomic
    # temps, a manifest temp, and one foreign file prune must not touch.
    garbage = ["part_99990.bin", "delta_99991.bin", "part_99990.bin.tmp",
               ckpt.MANIFEST + ".tmp"]
    for name in garbage:
        (phase_dir / name).write_bytes(b"stale")
    (phase_dir / "notes.txt").write_bytes(b"keep me")
    before = set(os.listdir(phase_dir))
    pruned = ckpt.prune_workdir(str(phase_dir), manifest)
    assert pruned == len(garbage)
    survivors = set(os.listdir(phase_dir))
    # Every referenced file that existed is untouched (folded delta
    # logs were already gone before the prune).
    assert (referenced & before) <= survivors
    assert ckpt.MANIFEST in survivors
    assert ENCODING_LOG in survivors  # the ids' table is never garbage
    assert "notes.txt" in survivors
    assert not (set(garbage) & survivors)
    assert run.stats.checkpoint_files_pruned >= 0


def test_engine_prunes_during_resumed_run(tmp_path):
    """Garbage in a workdir being *resumed* (fresh runs clear it up
    front instead) disappears once a durable checkpoint fires, and the
    run's answer is intact."""
    first = _run(tmp_path)
    for phase in ("alias", "dataflow"):
        phase_dir = tmp_path / phase
        (phase_dir / "part_55555.bin").write_bytes(b"orphan")
        # Mark the manifest incomplete so the resume re-enters the
        # closure loop (and its checkpoint/prune path) instead of
        # adopting the finished result wholesale.
        manifest = json.loads((phase_dir / ckpt.MANIFEST).read_text())
        manifest["complete"] = False
        (phase_dir / ckpt.MANIFEST).write_text(json.dumps(manifest))
    again = _run(tmp_path, resume=True)
    assert [w for w in again.report.warnings] == [
        w for w in first.report.warnings
    ]
    assert again.stats.checkpoint_files_pruned >= 2
    for phase in ("alias", "dataflow"):
        assert not (tmp_path / phase / "part_55555.bin").exists()


def test_manifest_from_a_build_with_the_worker_pool_still_resumes(tmp_path):
    """Manifests written before the pool was deleted carry an
    informational ``steal_frontier`` and stats the engine no longer
    has; neither is in the config digest, and both are ignored."""
    first = _run(tmp_path)
    for phase in ("alias", "dataflow"):
        path = tmp_path / phase / ckpt.MANIFEST
        manifest = json.loads(path.read_text())
        manifest["complete"] = False  # re-enter the closure loop
        manifest["steal_frontier"] = {"wave": 3, "stolen": 5}
        manifest["stats"].update(
            waves=3, pairs_stolen=5, shm_publishes=7, worker_busy_s=1.5,
            strata=2,
        )
        path.write_text(json.dumps(manifest))
    again = _run(tmp_path, resume=True)
    assert list(again.report.warnings) == list(first.report.warnings)
    assert not hasattr(again.stats, "waves")
    assert "steal_frontier" not in json.loads(
        (tmp_path / "alias" / ckpt.MANIFEST).read_text()
    )


def test_prune_mid_kill_keeps_latest_resumable_state(tmp_path, monkeypatch):
    """A crash after any prefix of the prune's deletions must leave the
    manifest's state fully resumable."""
    first = _run(tmp_path)
    phase_dir = tmp_path / "dataflow"
    manifest = ckpt.load_manifest(str(phase_dir))
    for name in ("part_99990.bin", "delta_99991.bin", "part_99992.bin",
                 "delta_99993.bin"):
        (phase_dir / name).write_bytes(b"stale")

    real_remove = os.remove
    calls = {"n": 0}

    def dying_remove(path):
        calls["n"] += 1
        if calls["n"] > 2:
            raise KeyboardInterrupt("kill -9 mid-prune")
        real_remove(path)

    monkeypatch.setattr(os, "remove", dying_remove)
    with pytest.raises(KeyboardInterrupt):
        ckpt.prune_workdir(str(phase_dir), manifest)
    monkeypatch.setattr(os, "remove", real_remove)

    # Some garbage survived the partial prune; the referenced state did
    # too, and a --resume run reproduces the original answer exactly.
    referenced = {d["path"] for d in manifest["partitions"]}
    survivors = set(os.listdir(phase_dir))
    assert referenced <= survivors
    resumed = _run(tmp_path, resume=True)
    assert [w for w in resumed.report.warnings] == [
        w for w in first.report.warnings
    ]


# -- ids on disk: the encoding log ---------------------------------------------


def test_manifest_counts_the_encoding_log(tmp_path):
    run = _run(tmp_path)
    for phase, result in (("alias", run.alias_phase),
                          ("dataflow", run.dataflow_phase)):
        logged, _ends = _logged(tmp_path / phase)
        manifest = ckpt.load_manifest(str(tmp_path / phase))
        table = result.engine_result.store.table
        assert 0 < manifest["encodings"] == len(logged) <= len(table)
        assert table.since(0)[: len(logged)] == logged
        # The table is resident and outside the budget: its length is
        # reported, and rides in the manifest's stats snapshot.
        assert manifest["stats"]["encodings"] == len(table)
        # Every id a partition file holds is in the log.
        for desc in manifest["partitions"]:
            parsed = serialize.parse_columnar(
                (tmp_path / phase / desc["path"]).read_bytes()
            )
            assert parsed.n_encodings <= len(logged)
    assert run.stats.encodings == sum(
        len(p.engine_result.store.table)
        for p in (run.alias_phase, run.dataflow_phase)
    )


def test_resume_puts_every_logged_id_where_the_first_run_did(tmp_path):
    first = _run(tmp_path)
    before = {p: _logged(tmp_path / p)[0] for p in ("alias", "dataflow")}
    _reopen(tmp_path)
    again = _run(tmp_path, resume=True)
    assert _warnings(again) == _warnings(first)
    for phase, result in (("alias", again.alias_phase),
                          ("dataflow", again.dataflow_phase)):
        table = result.engine_result.store.table
        logged = before[phase]
        assert table.since(0)[: len(logged)] == logged
        # The log only ever grows, and stays whole across the resume.
        assert _logged(tmp_path / phase)[0][: len(logged)] == logged


def test_log_tail_the_manifest_never_counted_is_harmless(tmp_path):
    """A crash between the log append and the partition write it
    precedes: the log is longer than any manifest says, the partition's
    temp is torn.  And a crash *inside* the append: a torn tail frame."""
    first = _run(tmp_path)
    _reopen(tmp_path)
    extra = [(("I", "never_referenced", 0, i),) for i in range(3)]
    whole = {}
    for phase in ("alias", "dataflow"):
        phase_dir = tmp_path / phase
        manifest = ckpt.load_manifest(str(phase_dir))
        frame = serialize.encode_frame(serialize.encode_encodings(extra))
        torn = serialize.encode_frame(serialize.encode_encodings(extra[:1]))
        with open(phase_dir / ENCODING_LOG, "ab") as f:
            f.write(frame)
            whole[phase] = f.tell()
            f.write(torn[:-3])
        part = phase_dir / manifest["partitions"][0]["path"]
        (phase_dir / (part.name + ".tmp")).write_bytes(part.read_bytes()[:40])
    again = _run(tmp_path, resume=True)
    assert _warnings(again) == _warnings(first)
    for phase, result in (("alias", again.alias_phase),
                          ("dataflow", again.dataflow_phase)):
        manifest = ckpt.load_manifest(str(tmp_path / phase))
        logged, ends = _logged(tmp_path / phase)  # whole: the tear was cut
        assert manifest["encodings"] == len(logged)
        table = result.engine_result.store.table
        assert table.since(0)[: len(logged)] == logged
        assert set(extra) <= set(logged)
        assert any(end == whole[phase] for _count, end in ends)


@pytest.mark.parametrize("damage", ["truncated", "flipped"])
def test_short_or_damaged_encoding_log_refuses_the_resume(
        tmp_path, capsys, damage):
    from repro.cli import main

    source = tmp_path / "subject.mini"
    # Scale 1: the alias phase interns encodings after its first
    # partition write, so its log has an interior frame to damage.
    source.write_text(build_subject("zookeeper", scale=1.0).source)
    workdir = tmp_path / "wd"
    argv = ["check", str(source), "--checkers", CHECKER,
            "--workdir", str(workdir)]
    assert main(argv) == 1
    golden = capsys.readouterr().out
    log = workdir / "alias" / ENCODING_LOG
    data = log.read_bytes()
    _encodings, ends = _logged(workdir / "alias")
    want = ckpt.load_manifest(str(workdir / "alias"))["encodings"]
    assert len(ends) > 1
    if damage == "truncated":
        # 7 bytes short of the end of the last frame the manifest counts.
        end = next(end for count, end in ends if count >= want)
        log.write_bytes(data[: end - 7])
        problem = rf"encoding log holds \d+ < {want} encodings"
    else:
        at = ends[0][1] - 1  # last payload byte of an interior frame
        log.write_bytes(data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1 :])
        problem = r"encoding log has 1 corrupt frame\(s\)"
    assert main(argv + ["--resume"]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # no verdict
    assert re.search(
        rf"repro: cannot resume: {problem}; re-run without --resume", err
    )
    # Without --resume the same directory starts over and answers.
    assert main(argv) == 1
    assert capsys.readouterr().out == golden


def test_fresh_run_removes_a_stale_encoding_log(tmp_path):
    for phase in ("alias", "dataflow"):
        (tmp_path / phase).mkdir()
        stale = serialize.encode_frame(serialize.encode_encodings(
            [(("I", "stale", 0, 0),)]
        ))
        (tmp_path / phase / ENCODING_LOG).write_bytes(stale)
    _run(tmp_path)
    for phase in ("alias", "dataflow"):
        logged, _ends = _logged(tmp_path / phase)
        assert (("I", "stale", 0, 0),) not in logged
        assert len(logged) == ckpt.load_manifest(
            str(tmp_path / phase))["encodings"]


def _v2_partition_file():
    """One row as the previous build wrote it: string table, tuple
    table, columns, no trailer."""
    from array import array

    strings = {"f": 0}
    buf = bytearray(serialize.MAGIC + b"\x02")
    serialize._append_string_table(buf, strings)
    serialize._append_varint(buf, 1)
    serialize._append_encoding(buf, (("I", "f", 0, 1),), strings.__getitem__)
    serialize._append_varint(buf, 1)
    buf += array("q", [0]).tobytes() * 4
    return bytes(buf)


@pytest.mark.parametrize(
    "reason",
    ["none", "unreadable", "format 1 != 4", "format 2 != 4", "format 3 != 4"],
)
def test_resume_without_a_usable_checkpoint_says_so(tmp_path, capsys, reason):
    """Never a silent fallback: a --resume that finds nothing to resume
    from starts fresh, clears the directory's engine files, and says so
    once per phase."""
    golden = _warnings(_run(None))
    if reason != "none":
        _run(tmp_path)
        for phase in ("alias", "dataflow"):
            path = tmp_path / phase / ckpt.MANIFEST
            if reason == "unreadable":
                path.write_text("{not json")
            elif reason == "format 3 != 4":
                # A workdir of the previous build: the same files, but
                # its alias phase closed the old grammar (flowsToBar and
                # alias rows, no storeBar row to compose with).
                manifest = json.loads(path.read_text())
                manifest["format"] = 3
                path.write_text(json.dumps(manifest))
            elif reason == "format 2 != 4":
                # A workdir of the build before: format 2, id columns
                # in partition files but tuple (v1) delta frames.
                manifest = json.loads(path.read_text())
                manifest["format"] = 2
                path.write_text(json.dumps(manifest))
                for desc in manifest["partitions"]:
                    (tmp_path / phase / desc["delta_path"]).write_bytes(
                        serialize.encode_frame(serialize.MAGIC + b"\x01\x00")
                    )
            else:
                # An older workdir still: format 1, tuple-table (v2)
                # partition files, no encoding log.
                manifest = json.loads(path.read_text())
                manifest["format"] = 1
                del manifest["encodings"]
                path.write_text(json.dumps(manifest))
                (tmp_path / phase / ENCODING_LOG).unlink()
                for desc in manifest["partitions"]:
                    (tmp_path / phase / desc["path"]).write_bytes(
                        _v2_partition_file()
                    )
    capsys.readouterr()
    run = _run(tmp_path, resume=True)
    err = capsys.readouterr().err
    for phase in ("alias", "dataflow"):
        assert (
            f"repro: no usable checkpoint in {tmp_path / phase}"
            f" ({reason}); starting fresh\n"
        ) in err
    assert err.count("no usable checkpoint") == 2
    assert _warnings(run) == golden
    assert run.stats.pairs_processed > 0
    # What is there now is this build's: the old files were never parsed.
    for phase in ("alias", "dataflow"):
        manifest = ckpt.load_manifest(str(tmp_path / phase))
        assert manifest["format"] == ckpt.FORMAT == 4
        for desc in manifest["partitions"]:
            serialize.parse_columnar(
                (tmp_path / phase / desc["path"]).read_bytes()
            )


def test_a_v2_partition_file_is_refused_not_parsed():
    with pytest.raises(
        serialize.CorruptPartition, match="unsupported partition version 2"
    ):
        serialize.parse_columnar(_v2_partition_file())


def test_usable_checkpoint_resumes_quietly(tmp_path, capsys):
    _run(tmp_path)
    capsys.readouterr()
    _run(tmp_path, resume=True)
    assert "no usable checkpoint" not in capsys.readouterr().err
