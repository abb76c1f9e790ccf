"""FSM specifications and the built-in property checkers.

Every built-in FSM -- the paper's four checkers (§5) and the
interprocedural property packs (taint, API ordering, lock discipline)
added with cross-file scope resolution -- is a block of ``builtin.fsm``,
parsed by :func:`repro.checkers.spec.parse_fsm_specs`, the parser
``repro check --spec`` uses.  Look one up with ``Checker.by_name(name).fsm``.
"""

from repro.checkers.fsm import FSM, FsmError
from repro.checkers.report import Diagnostic, LintReport, Warning, Report
from repro.checkers.checker import (
    Checker,
    default_checkers,
    pack_checkers,
    run_checker,
)

__all__ = [
    "FSM",
    "FsmError",
    "Warning",
    "Report",
    "Diagnostic",
    "LintReport",
    "Checker",
    "default_checkers",
    "pack_checkers",
    "run_checker",
]
