"""Unit tests for the property-pack FSMs (taint, ordering, lockdep)."""

from repro.checkers.checker import (
    ALL_CHECKERS,
    Checker,
    PACK_CHECKERS,
    PAPER_CHECKERS,
    default_checkers,
    pack_checkers,
)


def test_taint_fsm_sink_while_tainted_is_the_error():
    fsm = Checker.by_name("taint").fsm
    assert fsm.initial == "Tainted"
    assert fsm.run(["exec"]) == "Error"
    assert fsm.run(["sanitize", "exec"]) == "Clean"
    assert fsm.run(["validate", "query", "send_raw"]) == "Clean"
    # A refill re-taints: sanitize once is not a permanent license.
    assert fsm.run(["sanitize", "refill", "query"]) == "Error"
    # No at-exit obligation -- unsunk tainted data is fine.
    assert not fsm.violates_at_exit("Tainted")
    assert not fsm.violates_at_exit("Clean")


def test_order_fsm_init_before_use_and_double_dispose():
    fsm = Checker.by_name("order").fsm
    assert fsm.run(["init", "use", "dispose"]) == "Disposed"
    assert fsm.run(["use"]) == "Error"
    assert fsm.run(["init", "init"]) == "Error"
    assert fsm.run(["init", "dispose", "use"]) == "Error"
    assert fsm.run(["init", "dispose", "dispose"]) == "Error"
    # Initialised but never disposed is an at-exit violation; never
    # initialised at all is not.
    assert fsm.violates_at_exit("Ready")
    assert not fsm.violates_at_exit("Created")


def test_iterator_fsm_invalidation():
    fsm = Checker.by_name("iterator").fsm
    assert fsm.run(["next", "next"]) == "Valid"
    assert fsm.run(["invalidate", "next"]) == "Error"
    assert fsm.run(["invalidate", "refresh", "next"]) == "Valid"
    assert not fsm.violates_at_exit("Invalid")


def test_lockdep_fsm_discipline():
    fsm = Checker.by_name("lockdep").fsm
    assert fsm.run(["acquire", "release"]) == "Released"
    assert fsm.run(["acquire", "acquire"]) == "DoubleAcquire"
    assert fsm.run(["release"]) == "ReleaseUnheld"
    assert fsm.run(["acquire", "wait"]) == "WaitWhileHolding"
    # Waiting without the lock is legal.
    assert fsm.run(["wait", "acquire", "release"]) == "Released"
    assert fsm.violates_at_exit("Held")
    for error_state in ("ReleaseUnheld", "DoubleAcquire", "WaitWhileHolding"):
        assert error_state in fsm.error_states


def test_default_checkers_stay_pinned_to_the_papers_four():
    assert tuple(c.name for c in default_checkers()) == PAPER_CHECKERS
    assert tuple(c.name for c in pack_checkers()) == PACK_CHECKERS
    assert set(PAPER_CHECKERS) | set(PACK_CHECKERS) == set(ALL_CHECKERS)
    assert not set(PAPER_CHECKERS) & set(PACK_CHECKERS)


def test_pack_types_do_not_collide_with_paper_types():
    paper_types = set()
    for checker in default_checkers():
        paper_types.update(checker.fsm.types)
    pack_types = set()
    for checker in pack_checkers():
        pack_types.update(checker.fsm.types)
    assert not paper_types & pack_types
