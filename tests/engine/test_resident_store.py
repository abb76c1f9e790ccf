"""Memory-first partition store (DESIGN.md §7, §11).

A closure whose partitions stay resident never touches the disk; bytes
leave memory only through eviction, worker materialisation or a
checkpoint; and durability (fsync, manifests) is paid only under an
explicit workdir -- the one place a run can be resumed from.
"""

import gc
import os
import tempfile

import pytest

from repro import EngineOptions, Grapple, GrappleOptions, default_checkers
from repro.checkers.checker import pack_checkers
from repro.engine import checkpoint as ckpt
from repro.engine import serialize
from repro.engine.partition import ENCODING_LOG
from repro.serve import ServeEngine
from repro.workloads import build_subject
from repro.workloads.multifile import build_multifile_subject

#: subject -> (sources, fsms, a budget that forces splits and evictions)
SUBJECTS = {
    "zookeeper": lambda: (
        build_subject("zookeeper", scale=0.3).source,
        [c.fsm for c in default_checkers()],
        256 << 10,
    ),
    "gateway": lambda: (
        build_multifile_subject("gateway", scale=1.0).sources,
        [c.fsm for c in pack_checkers()],
        2 << 10,
    ),
}


@pytest.fixture(params=sorted(SUBJECTS))
def subject(request):
    return SUBJECTS[request.param]()


@pytest.fixture
def tmpdir_probe(tmp_path, monkeypatch):
    """A private, initially empty system temp dir."""
    probe = tmp_path / "systmp"
    probe.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(probe))
    return probe


@pytest.fixture
def fsyncs(monkeypatch):
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


def _run(sources, fsms, **engine):
    options = GrappleOptions(engine=EngineOptions(**engine))
    return Grapple(sources, fsms, options).run()


def _verdict(run):
    warnings = sorted(
        (w.checker, w.kind, w.site, w.type_name, w.state, w.func, w.line)
        for w in run.report.warnings
    )
    return warnings, run.stats.edges_after


def test_in_budget_scratch_run_never_touches_disk(
        subject, tmp_path, tmpdir_probe, fsyncs, monkeypatch):
    sources, fsms, _ = subject

    def no_mkdtemp(*args, **kwargs):
        raise AssertionError("an in-budget run asked for a temp dir")

    with monkeypatch.context() as patch:
        patch.setattr(tempfile, "mkdtemp", no_mkdtemp)
        run = _run(sources, fsms)
    assert fsyncs == []
    assert os.listdir(tmpdir_probe) == []
    assert run.stats.partition_writes == 0
    assert run.stats.partition_bytes_written == 0
    durable = _run(sources, fsms, workdir=str(tmp_path / "wd"))
    assert _verdict(run) == _verdict(durable)


def test_out_of_budget_scratch_run_writes_without_fsync(
        subject, tmpdir_probe, fsyncs):
    sources, fsms, budget = subject
    run = _run(sources, fsms, memory_budget=budget)
    assert run.stats.repartitions > 0
    assert run.stats.partition_writes > 0
    assert run.stats.partition_bytes_written > 0
    assert fsyncs == []
    assert all(n.startswith("grapple_") for n in os.listdir(tmpdir_probe))
    assert os.listdir(tmpdir_probe)
    # Its files hold ids of a table that dies with this process: a
    # scratch store keeps no encoding log.
    for scratch in os.listdir(tmpdir_probe):
        names = os.listdir(tmpdir_probe / scratch)
        assert any(n.startswith("part_") for n in names)
        assert ENCODING_LOG not in names
    verdict = _verdict(run)
    assert verdict == _verdict(_run(sources, fsms))
    del run
    gc.collect()
    assert os.listdir(tmpdir_probe) == []


def test_explicit_workdir_stays_durable(subject, tmp_path, fsyncs,
                                        monkeypatch):
    sources, fsms, budget = subject
    writes = []
    real = serialize.atomic_write_bytes

    def spy(path, data, replace=True, durable=True):
        before = len(fsyncs)
        out = real(path, data, replace=replace, durable=durable)
        writes.append((os.path.basename(path), len(fsyncs) - before))
        return out

    monkeypatch.setattr(serialize, "atomic_write_bytes", spy)
    workdir = str(tmp_path / "wd")
    run = _run(sources, fsms, workdir=workdir, memory_budget=budget)
    partition_writes = [n for name, n in writes if name.startswith("part_")]
    assert len(partition_writes) == run.stats.partition_writes > 0
    assert set(n for _name, n in writes) == {1}
    # Beyond one fsync per atomic write: one per encoding-log frame,
    # i.e. per flush that had interned something new.
    frames = 0
    for phase in ("alias", "dataflow"):
        with open(os.path.join(workdir, phase, ENCODING_LOG), "rb") as f:
            payloads, dropped, corrupt = serialize.split_frames(f.read())
        assert payloads and (dropped, corrupt) == (0, 0)
        frames += len(payloads)
    assert len(fsyncs) == len(writes) + frames
    assert frames <= run.stats.partition_writes
    for phase in ("alias", "dataflow"):
        manifest = ckpt.load_manifest(os.path.join(workdir, phase))
        assert manifest["complete"] is True
        for desc in manifest["partitions"]:
            assert os.path.exists(os.path.join(workdir, phase, desc["path"]))
    assert _verdict(run) == _verdict(_run(sources, fsms))


def test_ci_fault_plan_recovers_with_ids_on_disk(tmp_path):
    """The fault-smoke job's PLAN, at a budget that evicts."""
    sources, fsms, budget = SUBJECTS["gateway"]()
    workdir = str(tmp_path / "wd")
    plan = "short_write@partition-write:2,torn_rename@partition-write:4"
    run = _run(sources, fsms, workdir=workdir, memory_budget=budget,
               fault_plan=plan)
    fired = set(os.listdir(os.path.join(workdir, ".faults")))
    assert fired == {"fault-00.fired", "fault-01.fired"}
    assert _verdict(run) == _verdict(_run(sources, fsms))


def test_partition_write_faults_still_fire_under_explicit_workdir(tmp_path):
    sources, fsms, budget = SUBJECTS["gateway"]()
    workdir = str(tmp_path / "wd")
    plan = "short_write@partition-write:1,torn_rename@partition-write:2"
    run = _run(sources, fsms, workdir=workdir, memory_budget=budget,
               fault_plan=plan)
    fired = sorted(os.listdir(os.path.join(workdir, ".faults")))
    assert fired == ["fault-00.fired", "fault-01.fired"]
    assert _verdict(run) == _verdict(_run(sources, fsms))


def test_serve_edit_fsyncs_only_the_workspace_file_and_the_state(
        tmp_path, tmpdir_probe, fsyncs):
    ws, wd = str(tmp_path / "ws"), str(tmp_path / "wd")
    os.makedirs(ws)
    for path, text in build_multifile_subject(
            "gateway", scale=2.0).sources.items():
        with open(os.path.join(ws, path), "w") as f:
            f.write(text)
    engine = ServeEngine(ws, wd, [c.fsm for c in pack_checkers()])
    engine.scan()
    with open(os.path.join(ws, "g0svc.mini")) as f:
        text = f.read() + "func g0_pad(v) {\n    return v + 7;\n}\n"
    del fsyncs[:]
    fragment = engine.edit("g0svc.mini", text)
    assert fragment["edit"]["strata_rechecked"] == 1
    assert len(fsyncs) == 2
    assert fragment["counters"]["partition_writes"] == 0
    assert fragment["counters"]["partition_bytes_written"] == 0
    assert os.listdir(tmpdir_probe) == []


@pytest.mark.parametrize("explicit", [False, True])
def test_phase_end_leaves_no_insert_overlay(tmp_path, explicit):
    sources, fsms, _ = SUBJECTS["zookeeper"]()
    workdir = str(tmp_path / "wd") if explicit else None
    run = _run(sources, fsms, workdir=workdir)
    for phase in (run.alias_phase, run.dataflow_phase):
        resident = phase.engine_result.store._cache
        assert resident
        for cols in resident.values():
            assert cols.extra == {} and cols._extra_rows == 0
