"""Tests for checkpoint manifests and --resume (repro.engine.checkpoint)."""

import json
import os

import pytest

from repro import EngineOptions, Grapple, GrappleOptions
from repro.checkers.checker import Checker
from repro.engine import checkpoint as ckpt
from repro.engine.computation import GraphEngine
from repro.workloads import build_subject

CHECKER = "io"


def _run(workdir, *, resume=False, scale=0.2, **engine_kw):
    subject = build_subject("zookeeper", scale=scale)
    options = GrappleOptions(
        engine=EngineOptions(
            workdir=str(workdir) if workdir is not None else None,
            resume=resume,
            **engine_kw,
        )
    )
    fsm = Checker.by_name(CHECKER).fsm
    return Grapple(subject.source, [fsm], options).run()


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
