"""Tests for the deterministic fault-injection harness (repro.faults)."""

import pytest

from repro import faults as F


def test_parse_plan():
    plan = F.FaultPlan.parse(
        "short_write@partition-write:2, kill_run@checkpoint:1"
    )
    assert len(plan.specs) == 2
    assert plan.specs[0].mode == "short_write"
    assert plan.specs[0].site == "partition-write"
    assert plan.specs[0].nth == 2


@pytest.mark.parametrize("text", [
    "bogus@partition-write:1",        # unknown mode
    "short_write@nowhere:1",          # unknown site
    "kill_worker@partition-write:1",  # mode not valid at this site
    "short_write@partition-write:0",  # nth must be >= 1
    "short_write@partition-write",    # missing nth
    "short_write",                    # missing site
    "kill_worker@worker-task:1",      # the deleted pool's sites are
    "shm_unlink@attach:1",            # unknown like any other, and so
    "bad_frame@delta-append:1",       # are the deleted delta files'
])
def test_parse_rejects(text):
    with pytest.raises(F.FaultPlanError):
        F.FaultPlan.parse(text)


def test_fire_latches_once(tmp_path):
    plan = F.FaultPlan.parse("torn_rename@partition-write:2")
    plan.arm(str(tmp_path))
    assert plan.fire("partition-write") is None     # 1st write: before nth
    spec = plan.fire("partition-write")             # 2nd: fires
    assert spec is not None and spec.mode == "torn_rename"
    assert plan.fire("partition-write") is None     # latched: never again
    assert plan.fire("checkpoint") is None          # other sites untouched


def test_latch_survives_rearm_without_reset(tmp_path):
    """A resumed run (arm without reset) must not replay already-fired
    faults; a fresh run (reset=True) starts over."""
    plan = F.FaultPlan.parse("short_write@partition-write:1")
    plan.arm(str(tmp_path))
    assert plan.fire("partition-write") is not None

    again = F.FaultPlan.parse("short_write@partition-write:1")
    again.arm(str(tmp_path))  # resume: latch file already present
    assert again.fire("partition-write") is None

    fresh = F.FaultPlan.parse("short_write@partition-write:1")
    fresh.arm(str(tmp_path), reset=True)
    assert fresh.fire("partition-write") is not None


def test_unarmed_plan_uses_in_memory_latch():
    """Without arm() (no latch directory) the plan still fires exactly
    once, tracked in-process -- convenient for unit tests."""
    plan = F.FaultPlan.parse("short_write@partition-write:1")
    assert plan.fire("partition-write") is not None
    assert plan.fire("partition-write") is None


def test_null_plan_is_inert(tmp_path):
    assert F.NULL_PLAN.fire("partition-write") is None
    F.NULL_PLAN.arm(str(tmp_path))  # no-op, no files
    assert list(tmp_path.iterdir()) == []
    assert F.resolve_plan(None) is F.NULL_PLAN


def test_resolve_plan_passthrough():
    plan = F.FaultPlan.parse("kill_run@checkpoint:1")
    assert F.resolve_plan(plan) is plan
    parsed = F.resolve_plan("kill_run@checkpoint:1")
    assert isinstance(parsed, F.FaultPlan)
