"""Unit and property tests for FSM specifications and the four checkers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkers.checker import ALL_CHECKERS, Checker, default_checkers
from repro.checkers.fsm import FsmError, make_fsm


def test_io_fsm_mirrors_figure_3a():
    fsm = Checker.by_name("io").fsm
    assert fsm.initial == "Open"
    assert fsm.run(["write", "write", "close"]) == "Closed"
    assert fsm.run(["close", "write"]) == "Error"
    assert fsm.violates_at_exit("Open")
    assert not fsm.violates_at_exit("Closed")


def test_io_double_close_harmless():
    fsm = Checker.by_name("io").fsm
    assert fsm.run(["close", "close"]) == "Closed"


def test_lock_fsm():
    fsm = Checker.by_name("lock").fsm
    assert fsm.run(["lock", "unlock"]) == "Unlocked"
    assert fsm.run(["unlock"]) == "Error"
    assert fsm.run(["lock", "lock"]) == "Error"
    assert fsm.violates_at_exit("Locked")


def test_exception_fsm():
    fsm = Checker.by_name("exception").fsm
    assert fsm.run(["throw"]) == "Thrown"
    assert fsm.run(["throw", "catch"]) == "Handled"
    assert fsm.run(["throw", "catch", "throw"]) == "Thrown"
    assert fsm.violates_at_exit("Thrown")
    assert not fsm.violates_at_exit("Created")


def test_socket_fsm_mirrors_figure_2():
    fsm = Checker.by_name("socket").fsm
    assert fsm.run(["bind", "configureBlocking", "accept"]) == "Bound"
    assert fsm.run(["bind", "close"]) == "Closed"
    assert fsm.run(["close", "accept"]) == "Error"
    assert fsm.violates_at_exit("Bound")


def test_unknown_events_ignored():
    fsm = Checker.by_name("io").fsm
    assert fsm.run(["toString", "hashCode"]) == "Open"


def test_error_states_not_at_exit_violations():
    """Error states are reported as error transitions, not leaks."""
    for fsm in ALL_CHECKERS.values():
        for state in fsm.error_states:
            assert not fsm.violates_at_exit(state)


def test_events_and_states_enumerations():
    fsm = Checker.by_name("io").fsm
    assert "close" in fsm.events()
    assert {"Open", "Closed", "Error"} <= fsm.states()


def test_make_fsm_validates_states():
    with pytest.raises(FsmError):
        make_fsm("bad", ["T"], "Start", {}, accepting={"Nowhere"})


def test_checker_by_name():
    checker = Checker.by_name("io")
    assert checker.fsm.name == "io"
    with pytest.raises(KeyError):
        Checker.by_name("nonexistent")


def test_default_checkers_are_the_paper_four():
    names = [c.name for c in default_checkers()]
    assert sorted(names) == ["exception", "io", "lock", "socket"]


def test_checker_types_disjoint():
    """No type may be claimed by two checkers (one FSM per type)."""
    seen: dict = {}
    for checker in default_checkers():
        for type_name in checker.fsm.types:
            assert type_name not in seen, (
                f"{type_name} claimed by {seen.get(type_name)} and"
                f" {checker.name}"
            )
            seen[type_name] = checker.name


# -- property-based ------------------------------------------------------------

_event_lists = st.lists(
    st.sampled_from(["write", "read", "close", "flush", "noop"]), max_size=12
)


@settings(max_examples=60, deadline=None)
@given(_event_lists)
def test_io_error_is_sticky_absorbing(events):
    """Once in Error, no event sequence leaves it."""
    fsm = Checker.by_name("io").fsm
    state = fsm.run(events)
    if state == "Error":
        assert fsm.run(events + ["close", "write"]) == "Error"


@settings(max_examples=60, deadline=None)
@given(_event_lists)
def test_io_run_equals_fold_of_steps(events):
    fsm = Checker.by_name("io").fsm
    state = fsm.initial
    for event in events:
        state = fsm.step(state, event)
    assert state == fsm.run(events)


@settings(max_examples=60, deadline=None)
@given(_event_lists)
def test_io_state_always_known(events):
    fsm = Checker.by_name("io").fsm
    assert fsm.run(events) in fsm.states()
