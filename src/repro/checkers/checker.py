"""The built-in checkers and a one-call entry point.

Every built-in FSM is a block of ``builtin.fsm``, read by the same
parser as ``repro check --spec`` (:mod:`repro.checkers.spec`), so the
built-ins get its duplicate-transition and undeclared-state checks too.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from repro.checkers.fsm import FSM
from repro.checkers.report import Report
from repro.checkers.spec import parse_fsm_specs

#: Every built-in FSM by name, in ``builtin.fsm`` order, parsed once per
#: process at import.  The first four are the paper's originals and
#: remain the default set (:func:`default_checkers`); the rest are the
#: interprocedural property packs (taint, API ordering, lock discipline)
#: that ship with cross-file scope resolution.
ALL_CHECKERS: dict[str, FSM] = {
    fsm.name: fsm
    for fsm in parse_fsm_specs(
        resources.files(__package__).joinpath("builtin.fsm").read_text()
    )
}

#: The paper's original four checker names (the default set).
PAPER_CHECKERS = ("io", "lock", "exception", "socket")
#: The property-pack checker names added with multi-file support.
PACK_CHECKERS = ("taint", "order", "iterator", "lockdep")


@dataclass
class Checker:
    """A named property checker: just a human name plus its FSM."""

    name: str
    fsm: FSM

    @classmethod
    def by_name(cls, name: str) -> "Checker":
        """Look up one of the built-in checkers by its short name."""
        try:
            return cls(name, ALL_CHECKERS[name])
        except KeyError:
            raise KeyError(
                f"unknown checker {name!r}; available: {sorted(ALL_CHECKERS)}"
            ) from None


def default_checkers() -> list[Checker]:
    """The paper's four checkers: I/O, lock, exception, socket."""
    return [Checker.by_name(name) for name in PAPER_CHECKERS]


def pack_checkers() -> list[Checker]:
    """The property-pack checkers: taint, order, iterator, lockdep."""
    return [Checker.by_name(name) for name in PACK_CHECKERS]


def run_checker(source: str, checkers=None, options=None) -> Report:
    """Check one program with the given (or all four) checkers."""
    from repro.analysis.pipeline import Grapple

    if checkers is None:
        checkers = default_checkers()
    fsms = [c.fsm if isinstance(c, Checker) else c for c in checkers]
    return Grapple(source, fsms, options).run().report
