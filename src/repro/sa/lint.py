"""A mini-language linter on the :mod:`repro.sa` dataflow framework.

Diagnostic kinds, all deterministic and ordered
(:meth:`repro.checkers.report.LintReport.sorted`):

* ``unreachable-code`` -- statements following a ``return``/``throw`` in
  the same block (surface AST, before any lowering touches bodies);
* ``constant-branch`` -- an ``if`` condition constant propagation proves
  always true/false (user-written conditions only; compiler-introduced
  ``__``-registers from exception lowering are excluded);
* ``use-before-init`` -- a variable read on some structural path before
  any assignment (forward must-assignment, join = intersection);
* ``dead-store`` -- a pure-scalar assignment whose value is never read
  (the :mod:`repro.sa.liveness` fixpoint, reporting instead of
  rewriting);
* ``shadowed-variable`` -- a ``var`` declaration hiding a parameter, an
  enclosing declaration, or an imported module alias (surface AST scope
  stack);
* ``tainted-sink`` -- a taint-source object reaches a sink event with no
  sanitizer on some path (the taint property pack's FSM run abstractly
  over the CFG);
* ``lock-order`` -- acquire/release discipline violations on lock
  objects: release-unheld, double-acquire, wait-while-holding (the
  lockdep pack's FSM, same abstract runner);
* ``escape-without-close`` -- an allocation of a checker-tracked type
  that can reach function exit without any tracked FSM event, without
  being returned, stored, passed on, or copied (forward may-analysis,
  join = union);
* ``unresolved-name`` / ``ambiguous-import`` -- name resolution
  findings, produced by :mod:`repro.sa.scopes` and merged in by the
  multi-file entry point :func:`run_lint_files`.

Unlike the checkers, lint consults no path constraints -- it is the
fast, flow-sensitive-but-path-insensitive first line of feedback.
"""

from __future__ import annotations

from repro.checkers.checker import ALL_CHECKERS
from repro.checkers.fsm import FSM
from repro.checkers.report import Diagnostic, LintReport
from repro.lang import ast
from repro.lang.cfg import build_cfg
from repro.lang.parser import parse_program
from repro.lang.transform import (
    lower_exceptions,
    normalize_calls,
    unroll_loops,
)
from repro.lang.summary import type_facts
from repro.lang.types import infer_object_vars
from repro.sa.constprop import branch_verdicts
from repro.sa.framework import DataflowProblem, solve
from repro.sa.liveness import _dead_stores, expr_uses

KIND_UNREACHABLE = "unreachable-code"
KIND_CONSTANT_BRANCH = "constant-branch"
KIND_USE_BEFORE_INIT = "use-before-init"
KIND_ESCAPE = "escape-without-close"
KIND_DEAD_STORE = "dead-store"
KIND_SHADOWED = "shadowed-variable"
KIND_TAINTED_SINK = "tainted-sink"
KIND_LOCK_ORDER = "lock-order"


def _internal(name: str) -> bool:
    """Compiler-introduced register (lowering/normalisation temporary)."""
    return name.startswith("__")


def run_lint(source: str, fsms: list[FSM] | None = None,
             unroll: int = 1) -> LintReport:
    """Lint a source program; ``fsms`` enable the escape analysis."""
    report = LintReport()
    surface = parse_program(source)
    for name, fn in surface.functions.items():
        _lint_unreachable(name, fn.body, report)
        _lint_shadowed(name, fn, report)

    core = parse_program(source)
    normalize_calls(core)
    unroll_loops(core, unroll)
    lower_exceptions(core)
    _lint_core(core, fsms, report)
    return report


def run_lint_files(sources, fsms: list[FSM] | None = None,
                   unroll: int = 1) -> LintReport:
    """Lint a multi-file program (``{path: text}`` or ``(path, text)``
    pairs).

    Scope-graph resolution runs first and its ``unresolved-name`` /
    ``ambiguous-import`` diagnostics are merged into the report; every
    per-function rule then runs over the linked program with file
    attribution, so the sorted output is byte-identical no matter in
    which order the files were discovered.
    """
    from repro.sa.scopes import load_modules, symbol_id

    report = LintReport()
    surface = load_modules(sources)
    for diag in surface.resolution.diagnostics:
        report.add(diag)
    file_of = dict(surface.resolution.file_of)

    for mf in surface.module_files:
        aliases = frozenset(imp.module for imp in mf.imports)
        for raw, fn in mf.functions.items():
            name = symbol_id(mf.module, raw)
            _lint_unreachable(name, fn.body, report, file=mf.path)
            _lint_shadowed(name, fn, report, file=mf.path, aliases=aliases)

    # Transforms mutate bodies, so the core pass links a fresh copy.
    core = load_modules(sources).program
    normalize_calls(core)
    unroll_loops(core, unroll)
    lower_exceptions(core)
    _lint_core(core, fsms, report, file_of=file_of)
    return report


def _lint_core(core: ast.Program, fsms, report: LintReport,
               file_of: dict | None = None) -> None:
    """The core-AST rules shared by both lint entry points."""
    tracked_types: set[str] = set()
    tracked_events: set[str] = set()
    for fsm in fsms or ():
        tracked_types |= set(fsm.types)
        tracked_events |= fsm.events()

    taint_fsm = ALL_CHECKERS["taint"]
    lockdep_fsm = ALL_CHECKERS["lockdep"]
    info = infer_object_vars({
        name: type_facts(fn) for name, fn in core.functions.items()
    })
    for name, fn in core.functions.items():
        file = (file_of or {}).get(name, "")
        _lint_constant_branches(name, fn, report, file=file)
        _lint_use_before_init(name, fn, report, file=file)
        _lint_dead_stores(
            name, fn, info.object_vars.get(name, set()), report, file=file
        )
        _lint_typestate(
            name, fn, taint_fsm, KIND_TAINTED_SINK, _taint_message,
            report, file=file,
        )
        _lint_typestate(
            name, fn, lockdep_fsm, KIND_LOCK_ORDER, _lockdep_message,
            report, file=file,
        )
        if tracked_types:
            _lint_escapes(
                name, fn, tracked_types, tracked_events, report, file=file
            )


# -- unreachable code (surface AST) ----------------------------------------


def _lint_unreachable(func: str, body: list, report: LintReport,
                      file: str = "") -> None:
    terminated = False
    for stmt in body:
        if terminated:
            report.add(
                Diagnostic(
                    kind=KIND_UNREACHABLE,
                    func=func,
                    line=getattr(stmt, "line", 0),
                    subject=type(stmt).__name__,
                    message="statement is unreachable (follows a"
                    " return/throw in the same block)",
                    file=file,
                )
            )
            break  # one diagnostic per dead region, not per statement
        if isinstance(stmt, (ast.Return, ast.Throw)):
            terminated = True
        elif isinstance(stmt, ast.If):
            _lint_unreachable(func, stmt.then_body, report, file=file)
            _lint_unreachable(func, stmt.else_body, report, file=file)
        elif isinstance(stmt, ast.While):
            _lint_unreachable(func, stmt.body, report, file=file)
        elif isinstance(stmt, ast.TryCatch):
            _lint_unreachable(func, stmt.try_body, report, file=file)
            _lint_unreachable(func, stmt.catch_body, report, file=file)


# -- shadowed variables (surface AST scope stack) --------------------------


def _lint_shadowed(func: str, fn: ast.Function, report: LintReport,
                   file: str = "", aliases: frozenset = frozenset()) -> None:
    """``var x`` hiding a parameter, an enclosing ``var x``, or an
    imported module alias.  Plain re-assignment (``x = ...``) is not a
    declaration and never shadows."""

    def declare(name: str, line: int, scopes: list) -> None:
        hidden = None
        if name in aliases:
            hidden = "the imported module alias"
        else:
            for scope in scopes:
                if name in scope:
                    hidden = (
                        "a parameter" if scope is scopes[0]
                        else "an enclosing declaration"
                    )
                    break
        if hidden is not None:
            report.add(
                Diagnostic(
                    kind=KIND_SHADOWED,
                    func=func,
                    line=line,
                    subject=name,
                    message=f"declaration of {name!r} shadows"
                    f" {hidden} of {name!r}",
                    file=file,
                )
            )
        scopes[-1].add(name)

    def walk(body: list, scopes: list) -> None:
        scopes.append(set())
        for stmt in body:
            if isinstance(stmt, ast.Assign) and stmt.decl:
                declare(stmt.target, stmt.line, scopes)
            elif isinstance(stmt, ast.If):
                walk(stmt.then_body, scopes)
                walk(stmt.else_body, scopes)
            elif isinstance(stmt, ast.While):
                walk(stmt.body, scopes)
            elif isinstance(stmt, ast.TryCatch):
                walk(stmt.try_body, scopes)
                scopes.append(set())
                declare(stmt.catch_var, stmt.line, scopes)
                walk(stmt.catch_body, scopes)
                scopes.pop()
        scopes.pop()

    walk(fn.body, [set(fn.params)])


# -- constant branches (core AST + constprop) ------------------------------


def _mentions_internal(expr) -> bool:
    return any(_internal(name) for name in expr_uses(expr))


def _lint_constant_branches(func: str, fn: ast.Function,
                            report: LintReport, file: str = "") -> None:
    verdicts = branch_verdicts(fn)
    for stmt in ast.walk_statements(fn.body):
        if not isinstance(stmt, ast.If):
            continue
        verdict = verdicts.get(id(stmt.cond))
        if verdict is None or _mentions_internal(stmt.cond):
            continue
        report.add(
            Diagnostic(
                kind=KIND_CONSTANT_BRANCH,
                func=func,
                line=stmt.line,
                subject="condition",
                message=f"condition is always"
                f" {'true' if verdict else 'false'}; the"
                f" {'else' if verdict else 'then'} branch never runs",
                file=file,
            )
        )


# -- dead stores (liveness fixpoint, reporting not rewriting) --------------


def _lint_dead_stores(func: str, fn: ast.Function, object_vars: set,
                      report: LintReport, file: str = "") -> None:
    def scalar_ok(var: str) -> bool:
        return not _internal(var) and var not in object_vars

    for stmt in _dead_stores(fn, scalar_ok):
        report.add(
            Diagnostic(
                kind=KIND_DEAD_STORE,
                func=func,
                line=stmt.line,
                subject=stmt.target,
                message=f"value assigned to {stmt.target!r} is never read"
                " (dead store)",
                file=file,
            )
        )


# -- use before init (forward must-assignment) -----------------------------


class _DefiniteAssignment(DataflowProblem):
    direction = "forward"

    def __init__(self, params: frozenset):
        self.params = params

    def boundary(self, cfg):
        return self.params

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a & b

    def transfer(self, block, assigned: frozenset) -> frozenset:
        out = set(assigned)
        for stmt in block.statements:
            if isinstance(stmt, ast.Assign):
                out.add(stmt.target)
            elif isinstance(stmt, ast.ExcLink):
                out.add(stmt.target)
        return frozenset(out)


def _lint_use_before_init(func: str, fn: ast.Function,
                          report: LintReport, file: str = "") -> None:
    cfg = build_cfg(fn)
    problem = _DefiniteAssignment(frozenset(fn.params))
    solution = solve(cfg, problem)
    cond_lines = {
        id(stmt.cond): stmt.line
        for stmt in ast.walk_statements(fn.body)
        if isinstance(stmt, ast.If)
    }
    flagged: set[str] = set()

    def check(expr, assigned: set, line: int) -> None:
        for name in sorted(expr_uses(expr)):
            if name in assigned or _internal(name) or name in flagged:
                continue
            flagged.add(name)
            report.add(
                Diagnostic(
                    kind=KIND_USE_BEFORE_INIT,
                    func=func,
                    line=line,
                    subject=name,
                    message=f"variable {name!r} may be read before"
                    " assignment",
                    file=file,
                )
            )

    for block_id in sorted(cfg.blocks):
        block = cfg.blocks[block_id]
        incoming = solution.block_in.get(block_id)
        if incoming is None:
            continue  # structurally unreachable
        assigned = set(incoming)
        for stmt in block.statements:
            if isinstance(stmt, ast.Assign):
                check(stmt.value, assigned, stmt.line)
                assigned.add(stmt.target)
            elif isinstance(stmt, ast.ExcLink):
                assigned.add(stmt.target)
            elif isinstance(stmt, (ast.FieldStore, ast.Event, ast.ExprStmt)):
                for name in sorted(_stmt_reads(stmt)):
                    check(ast.VarRef(name), assigned, stmt.line)
        if block.branch_cond is not None:
            check(
                block.branch_cond,
                assigned,
                cond_lines.get(id(block.branch_cond), 0),
            )
        if block.return_value is not None:
            check(block.return_value, assigned, 0)


def _stmt_reads(stmt) -> set:
    if isinstance(stmt, ast.FieldStore):
        return {stmt.base, stmt.value}
    if isinstance(stmt, ast.Event):
        reads = {stmt.base}
        for arg in stmt.args:
            expr_uses(arg, reads)
        return reads
    if isinstance(stmt, ast.ExprStmt):
        return expr_uses(stmt.call)
    return set()


# -- abstract typestate (property-pack FSMs over the CFG) ------------------


def _drop_var(tracked: set, var: str) -> None:
    for entry in [e for e in tracked if e[0] == var]:
        tracked.discard(entry)


def _typestate_step(fsm: FSM, stmt, tracked: set, on_error=None) -> set:
    """Advance the may-set of ``(var, line, type, state)`` over one core
    statement, invoking ``on_error`` when an event enters an FSM error
    state.  Error entries are reported and dropped, not propagated, so
    each violation is diagnosed once."""
    if isinstance(stmt, ast.Assign):
        if isinstance(stmt.value, ast.New):
            _drop_var(tracked, stmt.target)
            if stmt.value.type_name in fsm.types:
                tracked.add(
                    (stmt.target, stmt.line, stmt.value.type_name, fsm.initial)
                )
        elif isinstance(stmt.value, ast.VarRef):
            _drop_var(tracked, stmt.target)
            for entry in [e for e in tracked if e[0] == stmt.value.name]:
                tracked.add((stmt.target,) + entry[1:])
        else:
            # A call might transition the object arbitrarily; stop
            # tracking anything passed in (path-insensitive modesty).
            if isinstance(stmt.value, ast.Call):
                for name in expr_uses(stmt.value):
                    _drop_var(tracked, name)
            _drop_var(tracked, stmt.target)
    elif isinstance(stmt, ast.Event):
        for entry in [e for e in tracked if e[0] == stmt.base]:
            var, line, type_name, state = entry
            target = fsm.step(state, stmt.method)
            if target == state:
                continue
            tracked.discard(entry)
            if fsm.is_error(target):
                if on_error is not None:
                    on_error(stmt, entry, target)
            else:
                tracked.add((var, line, type_name, target))
        for arg in stmt.args:
            for name in expr_uses(arg):
                _drop_var(tracked, name)
    elif isinstance(stmt, ast.ExprStmt):
        for name in expr_uses(stmt.call):
            _drop_var(tracked, name)
    elif isinstance(stmt, ast.FieldStore):
        _drop_var(tracked, stmt.value)
        _drop_var(tracked, stmt.base)
    elif isinstance(stmt, ast.ExcLink):
        _drop_var(tracked, stmt.target)
    return tracked


class _Typestate(DataflowProblem):
    """May-analysis: ``{(var, alloc_line, type, fsm_state)}``."""

    direction = "forward"

    def __init__(self, fsm: FSM):
        self.fsm = fsm

    def boundary(self, cfg):
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def transfer(self, block, value: frozenset) -> frozenset:
        tracked = set(value)
        for stmt in block.statements:
            tracked = _typestate_step(self.fsm, stmt, tracked)
        if block.return_value is not None:
            for name in expr_uses(block.return_value):
                _drop_var(tracked, name)
        return frozenset(tracked)


def _taint_message(stmt: ast.Event, entry: tuple, state: str) -> str:
    var, _line, type_name, _state = entry
    return (
        f"{type_name} in {var!r} reaches sink {stmt.method!r} while"
        " still tainted (no sanitize/validate on some path)"
    )


def _lockdep_message(stmt: ast.Event, entry: tuple, state: str) -> str:
    var, _line, type_name, _state = entry
    if state == "ReleaseUnheld":
        return f"{type_name} in {var!r} released while not held"
    if state == "DoubleAcquire":
        return f"{type_name} in {var!r} acquired twice without release"
    return f"blocking {stmt.method!r} while holding {type_name} in {var!r}"


def _lint_typestate(func: str, fn: ast.Function, fsm: FSM, kind: str,
                    describe, report: LintReport, file: str = "") -> None:
    cfg = build_cfg(fn)
    solution = solve(cfg, _Typestate(fsm))
    emitted: set = set()
    for block_id in sorted(cfg.blocks):
        block = cfg.blocks[block_id]
        incoming = solution.block_in.get(block_id)
        if incoming is None:
            continue

        def on_error(stmt, entry, state):
            key = (entry[0], stmt.method, state, entry[1])
            if key in emitted:
                return
            emitted.add(key)
            report.add(
                Diagnostic(
                    kind=kind,
                    func=func,
                    line=stmt.line,
                    subject=entry[0],
                    message=describe(stmt, entry, state),
                    file=file,
                )
            )

        tracked = set(incoming)
        for stmt in block.statements:
            tracked = _typestate_step(fsm, stmt, tracked, on_error)


# -- tracked-object escape (forward may-analysis) --------------------------


class _FreshObjects(DataflowProblem):
    """May-analysis: ``{(var, alloc_line)}`` allocated-and-untouched."""

    direction = "forward"

    def __init__(self, tracked_types: set[str], tracked_events: set[str]):
        self.tracked_types = tracked_types
        self.tracked_events = tracked_events

    def boundary(self, cfg):
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def _drop(self, fresh: set, var: str) -> None:
        for entry in [e for e in fresh if e[0] == var]:
            fresh.discard(entry)

    def transfer(self, block, value: frozenset) -> frozenset:
        fresh = set(value)
        for stmt in block.statements:
            if isinstance(stmt, ast.Assign):
                if isinstance(stmt.value, ast.New):
                    self._drop(fresh, stmt.target)
                    if stmt.value.type_name in self.tracked_types:
                        fresh.add((stmt.target, stmt.line, stmt.value.type_name))
                    continue
                # Copying the reference hands responsibility elsewhere;
                # passing it to a call might close it.  Both suppress.
                if isinstance(stmt.value, ast.VarRef):
                    self._drop(fresh, stmt.value.name)
                elif isinstance(stmt.value, ast.Call):
                    for name in expr_uses(stmt.value):
                        self._drop(fresh, name)
                self._drop(fresh, stmt.target)
            elif isinstance(stmt, ast.Event):
                if stmt.method in self.tracked_events:
                    self._drop(fresh, stmt.base)
            elif isinstance(stmt, ast.FieldStore):
                self._drop(fresh, stmt.value)
                self._drop(fresh, stmt.base)
            elif isinstance(stmt, ast.ExprStmt):
                for name in expr_uses(stmt.call):
                    self._drop(fresh, name)
            elif isinstance(stmt, ast.ExcLink):
                self._drop(fresh, stmt.target)
        if block.return_value is not None:
            for name in expr_uses(block.return_value):
                self._drop(fresh, name)
        return frozenset(fresh)


def _lint_escapes(func: str, fn: ast.Function, tracked_types: set[str],
                  tracked_events: set[str], report: LintReport,
                  file: str = "") -> None:
    cfg = build_cfg(fn)
    problem = _FreshObjects(tracked_types, tracked_events)
    solution = solve(cfg, problem)
    leaked: set = set()
    for block in cfg.exit_blocks:
        final = solution.block_out.get(block.block_id)
        if final is None:
            continue
        leaked |= set(final)
    for var, line, type_name in sorted(leaked):
        report.add(
            Diagnostic(
                kind=KIND_ESCAPE,
                func=func,
                line=line,
                subject=var,
                message=f"{type_name} in {var!r} can reach function exit"
                " without a tracked event (possible resource leak)",
                file=file,
            )
        )
