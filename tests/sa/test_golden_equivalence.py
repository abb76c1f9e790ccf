"""Reduction safety: reports are identical with and without ``--reduce``.

The acceptance bar for the pre-closure reductions: on the golden
workload subjects, the canonical warning set (checker, kind, site,
state, type, function, line) and the TP/FP accounting must be
*identical* with reduction on and off.  Witness strings are excluded by
design -- they are one SMT model of the path constraint and the model
choice is not stable across encodings.
"""

import pytest

from tests.engine.oracle_capture import run_subject
from repro.workloads import build_subject
from repro.workloads.bugs import classify_report

SUBJECTS = (("zookeeper", 0.3), ("hdfs", 0.3))


def canonical_warnings(run):
    return sorted(
        (w.checker, w.kind, w.site, w.state, w.type_name, w.func, w.line)
        for w in run.report.warnings
    )


def accounting(name, scale, run):
    seeds = build_subject(name, scale=scale).seeds
    cls = classify_report(seeds, run.report)
    return (
        sorted(cls.tp.items()),
        sorted(cls.fp.items()),
        sorted(cls.missed.items()),
        len(cls.unexpected),
    )


@pytest.mark.slow
@pytest.mark.parametrize("name,scale", SUBJECTS)
def test_reduction_preserves_reports(name, scale):
    off = run_subject(name, scale, reduce=False)
    on = run_subject(name, scale, reduce=True)
    assert canonical_warnings(on) == canonical_warnings(off)
    assert accounting(name, scale, on) == accounting(name, scale, off)


@pytest.mark.slow
def test_reduction_actually_reduces():
    off = run_subject("zookeeper", 0.3, reduce=False)
    on = run_subject("zookeeper", 0.3, reduce=True)
    before = off.dataflow_phase.engine_result.stats.edges_before
    after = on.dataflow_phase.engine_result.stats.edges_before
    assert after < before
    assert on.reduction is not None
    assert on.reduction.total_removals() > 0


@pytest.mark.slow
def test_reduction_counters_exported_in_run_report():
    on = run_subject("zookeeper", 0.3, reduce=True)
    report = on.run_report(subject="zookeeper@0.3")
    assert "reduction" in report
    assert report["reduction"] == on.reduction.as_dict()

    from repro.obs.report import validate_run_report

    assert validate_run_report(report) == []

    off = run_subject("zookeeper", 0.3, reduce=False)
    assert "reduction" not in off.run_report()


def _run_gateway(reduce):
    from repro.analysis.pipeline import Grapple, GrappleOptions
    from repro.checkers.checker import pack_checkers
    from repro.workloads.multifile import build_multifile_subject

    subject = build_multifile_subject("gateway")
    run = Grapple(
        subject.sources, [c.fsm for c in pack_checkers()],
        GrappleOptions(reduce=reduce),
    ).run()
    cls = classify_report(subject.seeds, run.report)
    return canonical_warnings(run), (
        sorted(cls.tp.items()),
        sorted(cls.fp.items()),
        sorted(cls.missed.items()),
        len(cls.unexpected),
    )


@pytest.mark.slow
def test_reduction_preserves_reports_multifile():
    """Same bar as the single-file subjects, over the multi-file gateway
    subject and the property packs: scope resolution + reduction must
    not perturb a single warning or the TP/FP accounting."""
    off_warnings, off_accounting = _run_gateway(False)
    on_warnings, on_accounting = _run_gateway(True)
    assert on_warnings == off_warnings
    assert on_accounting == off_accounting
    tp, fp, missed, unexpected = on_accounting
    assert sum(n for _, n in missed) == 0
    assert unexpected == 0
