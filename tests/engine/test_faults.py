"""Tests for the deterministic fault-injection harness (repro.faults)."""

import pytest

from repro.engine import serialize
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
    "shm_unlink@attach:1",            # unknown like any other
])
def test_parse_rejects(text):
    with pytest.raises(F.FaultPlanError):
        F.FaultPlan.parse(text)


def test_fire_latches_once(tmp_path):
    plan = F.FaultPlan.parse("bad_frame@delta-append:2")
    plan.arm(str(tmp_path))
    assert plan.fire("delta-append") is None        # 1st append: before nth
    spec = plan.fire("delta-append")                # 2nd: fires
    assert spec is not None and spec.mode == "bad_frame"
    assert plan.fire("delta-append") is None        # latched: never again
    assert plan.fire("partition-write") is None     # other sites untouched


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


def test_mutate_short_frame_truncates():
    plan = F.FaultPlan.parse("short_frame@delta-append:1")
    frame = serialize.encode_frame(b"payload-bytes-here")
    out = plan.mutate_frame(plan.specs[0], frame)
    assert len(out) < len(frame)
    payloads, dropped, corrupt = serialize.split_frames(out)
    assert payloads == [] and dropped == 1 and corrupt == 0


def test_mutate_bad_frame_breaks_crc():
    plan = F.FaultPlan.parse("bad_frame@delta-append:1")
    frame = serialize.encode_frame(b"payload-bytes-here")
    out = plan.mutate_frame(plan.specs[0], frame)
    assert len(out) == len(frame)
    payloads, dropped, corrupt = serialize.split_frames(out)
    assert payloads == [] and dropped == 0 and corrupt == 1


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
