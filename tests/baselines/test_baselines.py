"""Tests for the traditional and string-based baselines (§5.3, Table 5)."""

import pytest

from repro import Grapple, GrappleOptions, default_checkers, io_checker
from repro.analysis.frontend import compile_source
from repro.baselines import (
    OutOfMemoryError,
    run_string_based,
    run_traditional_alias,
    run_traditional_check,
)

SMALL = """
func main(x) {
    var f = new FileWriter();
    f.write(x);
    if (x > 0) {
        f.close();
    }
    return;
}
"""


def fsms():
    return [c.fsm for c in default_checkers()]


def test_traditional_alias_completes_on_tiny_program():
    compiled = compile_source(SMALL)
    stats = run_traditional_alias(compiled, memory_budget=32 << 20)
    assert stats.completed
    assert stats.edges > 0
    assert stats.constraints_solved > 0


def test_traditional_alias_ooms_with_tiny_budget():
    compiled = compile_source(SMALL)
    with pytest.raises(OutOfMemoryError) as info:
        run_traditional_alias(compiled, memory_budget=1024)
    assert info.value.stats.estimated_bytes > 1024
    assert "out of memory" in str(info.value)


def test_traditional_check_completes_on_tiny_program():
    compiled = compile_source(SMALL)
    stats = run_traditional_check(compiled, [io_checker()],
                                  memory_budget=64 << 20)
    assert stats.completed
    assert stats.facts > 0


def test_traditional_check_ooms_on_realistic_subject():
    """The §5.3 result: a proportionally scaled budget cannot hold the
    traditional implementation's constraint objects."""
    from repro.workloads import build_subject

    subject = build_subject("zookeeper", scale=0.15)
    compiled = compile_source(subject.source)
    with pytest.raises(OutOfMemoryError):
        run_traditional_check(compiled, fsms(), memory_budget=4 << 20)


def test_string_baseline_same_report_as_grapple():
    report_interval = Grapple(SMALL, [io_checker()]).run().report
    result = run_string_based(SMALL, [io_checker()])
    assert not result.timed_out
    report_string = result.run.report
    assert {(w.checker, w.func, w.kind) for w in report_interval.warnings} == {
        (w.checker, w.func, w.kind) for w in report_string.warnings
    }


def test_string_baseline_reports_shape_metrics():
    result = run_string_based(SMALL, [io_checker()])
    assert result.partitions >= 1
    assert result.iterations >= 1
    assert result.constraints_solved > 0
    assert result.total_time > 0


def test_string_baseline_timeout_flag():
    result = run_string_based(
        SMALL, [io_checker()], time_budget=0.0
    )
    assert result.timed_out


def test_string_baseline_keeps_the_callers_frontend_options():
    """Only the engine changes: ``reduce=False`` (or any other frontend
    option) reaches the string run as it reaches Grapple's."""
    options = GrappleOptions(reduce=False)
    assert Grapple(SMALL, [io_checker()], options).run().reduction is None
    result = run_string_based(SMALL, [io_checker()], options)
    assert result.run.reduction is None
