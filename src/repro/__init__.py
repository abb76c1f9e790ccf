"""repro -- a from-scratch reproduction of Grapple (EuroSys'19).

Grapple is a single-machine, disk-based graph system for fully
context-sensitive, path-sensitive static checking of finite-state
properties over large codebases.  See README.md and DESIGN.md.

Quickstart::

    from repro import Checker, Grapple

    report = Grapple(source_code, [Checker.by_name("io").fsm]).run().report
    print(report.summary())
"""

from repro.analysis.pipeline import Grapple, GrappleOptions, GrappleRun
from repro.checkers import (
    Checker,
    Report,
    Warning,
    default_checkers,
    run_checker,
)
from repro.checkers.fsm import FSM, make_fsm
from repro.engine.computation import EngineOptions

__version__ = "1.0.0"

__all__ = [
    "Grapple",
    "GrappleOptions",
    "GrappleRun",
    "EngineOptions",
    "FSM",
    "make_fsm",
    "Checker",
    "Report",
    "Warning",
    "default_checkers",
    "run_checker",
]
