"""Finite-state-machine property specifications (paper §2, Figure 3a).

An :class:`FSM` maps a set of object types to states and event transitions.
Events are method names (``close``, ``write``, ``lock``, ...).  Each FSM
declares:

* ``initial`` -- the state right after allocation (the paper's post-``new``
  state);
* ``error_states`` -- states that indicate a bug as soon as they are
  entered (e.g. ``write`` after ``close``);
* ``accepting`` -- states an object must be in when the program exits;
  ending anywhere else is an at-exit violation (e.g. a leak).

Unknown events leave the state unchanged (objects receive many calls the
property does not care about).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property


class FsmError(ValueError):
    """Raised for ill-formed FSM specifications."""


@dataclass(frozen=True)
class FSM:
    name: str
    types: frozenset[str]
    initial: str
    transitions: dict  # (state, event) -> state
    accepting: frozenset[str]
    error_states: frozenset[str] = frozenset()

    def __post_init__(self):
        known = self._reachable_states()
        for state in self.accepting | self.error_states:
            if state not in known:
                raise FsmError(
                    f"state {state!r} in {self.name} is neither the initial"
                    " state nor mentioned by any transition"
                )

    def _reachable_states(self) -> frozenset[str]:
        out = {self.initial}
        for (state, _event), target in self.transitions.items():
            out.add(state)
            out.add(target)
        return frozenset(out)

    def states(self) -> frozenset[str]:
        """Every state mentioned by the specification."""
        return self._reachable_states() | self.accepting | self.error_states

    def events(self) -> frozenset[str]:
        """Every event that can change some state."""
        return frozenset(event for (_state, event) in self.transitions)

    @cached_property
    def spec_json(self) -> str:
        """The whole specification as JSON, every set sorted.  Kept:
        every run's analysis config embeds it (``Grapple._config``)."""
        return json.dumps([
            self.name, sorted(self.types), self.initial,
            sorted(self.transitions.items()), sorted(self.accepting),
            sorted(self.error_states),
        ])

    def step(self, state: str, event: str) -> str:
        """Transition on one event; unknown events are ignored."""
        return self.transitions.get((state, event), state)

    def run(self, events) -> str:
        """Run a whole event sequence from the initial state."""
        state = self.initial
        for event in events:
            state = self.step(state, event)
        return state

    def is_error(self, state: str) -> bool:
        """Whether entering this state is itself a bug."""
        return state in self.error_states

    def violates_at_exit(self, state: str) -> bool:
        """Whether ending the program in this state is a bug (a leak).

        Error states are excluded: they are reported as error transitions,
        not additionally as at-exit violations."""
        return state not in self.accepting and state not in self.error_states


def make_fsm(
    name: str,
    types,
    initial: str,
    transitions: dict,
    accepting,
    error_states=(),
) -> FSM:
    """Convenience constructor taking plain containers."""
    return FSM(
        name=name,
        types=frozenset(types),
        initial=initial,
        transitions=dict(transitions),
        accepting=frozenset(accepting),
        error_states=frozenset(error_states),
    )


def fsms_by_type(fsms) -> dict[str, FSM]:
    """Map each tracked type to the one FSM that claims it.

    A run checks each object against one FSM and keys its states and
    reports by FSM name, so two unequal FSMs may share neither a name
    nor a type: either would silently drop one of them.  Repeating an
    equal FSM is harmless."""
    by_name: dict[str, FSM] = {}
    by_type: dict[str, FSM] = {}
    for fsm in fsms:
        if by_name.setdefault(fsm.name, fsm) != fsm:
            raise FsmError(f"two different fsms are named {fsm.name!r}")
        for type_name in fsm.types:
            other = by_type.setdefault(type_name, fsm)
            if other != fsm:
                raise FsmError(
                    f"type {type_name!r} is claimed by both fsm"
                    f" {other.name!r} and fsm {fsm.name!r}"
                )
    return by_type
