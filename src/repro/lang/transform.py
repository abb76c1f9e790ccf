"""AST transformation passes.

Two passes turn the surface language into core form:

* :func:`unroll_loops` -- statically unrolls every ``while`` loop ``k``
  times (the paper, §3.1, bounds loop iterations to keep the CFET finite);
* :func:`lower_exceptions` -- removes ``throw``/``try``/``catch`` using a
  flag-based lowering.  Every throw becomes an FSM ``throw`` event plus
  assignments to a handler frame's flag/exception registers; statements
  after a possibly-throwing statement are guarded by ``flag == 0`` checks
  that the path-sensitive analyses resolve precisely.  A call to a function
  whose exceptions escape gets an explicit exceptional branch guarded by an
  unconstrained input (exceptions may or may not occur at run time), with an
  :class:`repro.lang.ast.ExcLink` binding the caller-side exception object
  to the callee's ``__exc`` register.

Run order: parse, then :func:`unroll_loops`, then :func:`lower_exceptions`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang import ast

DEFAULT_UNROLL = 2

THROWN_FLAG = "__thrown"
EXC_REGISTER = "__exc"


# -- loop unrolling ---------------------------------------------------------


def unroll_loops(program: ast.Program, k: int = DEFAULT_UNROLL) -> ast.Program:
    """Replace each ``while (c) B`` with ``k`` nested ``if (c) { B ... }``.

    Iterations beyond the bound are dropped, turning every function body
    into cycle-free code (a requirement for interval path encoding).
    The transformation is applied in place and the program is returned.
    """
    if k < 1:
        raise ValueError("unroll factor must be >= 1")
    for fn in program.functions.values():
        fn.body = _unroll_body(fn.body, k)
    return program


def _unroll_body(body: list, k: int) -> list:
    out: list = []
    for stmt in body:
        if isinstance(stmt, ast.While):
            out.append(_unroll_while(stmt, k))
        elif isinstance(stmt, ast.If):
            stmt.then_body = _unroll_body(stmt.then_body, k)
            stmt.else_body = _unroll_body(stmt.else_body, k)
            out.append(stmt)
        elif isinstance(stmt, ast.TryCatch):
            stmt.try_body = _unroll_body(stmt.try_body, k)
            stmt.catch_body = _unroll_body(stmt.catch_body, k)
            out.append(stmt)
        else:
            out.append(stmt)
    return out


def _unroll_while(loop: ast.While, k: int) -> ast.If:
    body = _unroll_body(loop.body, k)
    unrolled: list = []
    for i in range(k):
        iteration, cond = (body, loop.cond) if i == 0 else (
            _clone_body(body), _shallow(loop.cond))
        unrolled = [ast.If(cond, iteration + unrolled, [], line=loop.line)]
    return unrolled[0]


def _clone_body(body: list) -> list:
    """A copy of ``body`` whose statements and ``if`` conditions are new
    objects -- constant folding, lint and DSE key them by identity --
    sharing every other (frozen) expression."""
    out = []
    for stmt in body:
        if isinstance(stmt, ast.If):
            stmt = ast.If(_shallow(stmt.cond), _clone_body(stmt.then_body),
                          _clone_body(stmt.else_body), line=stmt.line)
        elif isinstance(stmt, ast.TryCatch):
            stmt = ast.TryCatch(_clone_body(stmt.try_body), stmt.catch_var,
                                _clone_body(stmt.catch_body), line=stmt.line)
        else:
            stmt = _shallow(stmt)
        out.append(stmt)
    return out


def _shallow(node):
    """A new AST node with ``node``'s fields (every node is a slotted
    dataclass whose slots are its fields, in order)."""
    cls = type(node)
    return cls(*[getattr(node, name) for name in cls.__slots__])


# -- exception lowering -----------------------------------------------------


@dataclass
class _Frame:
    """A handler frame: either a ``try`` region or the function itself."""

    flag: str  # int variable, 0 = no exception pending, 1 = pending
    exc: str  # object variable holding the pending exception
    is_function: bool


class _Lowerer:
    def __init__(self, may_throw: set[str]):
        self.may_throw = may_throw
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"__{prefix}_{self.counter}"

    def lower_function(self, fn: ast.Function) -> None:
        self.counter = 0  # temporaries are numbered per function
        frame = _Frame(THROWN_FLAG, EXC_REGISTER, is_function=True)
        body, activated = self.lower_body(fn.body, [frame])
        if fn.name in self.may_throw or activated:
            prologue = [
                ast.Assign(THROWN_FLAG, ast.IntLit(0), line=fn.line),
                ast.Assign(EXC_REGISTER, ast.NullLit(), line=fn.line),
            ]
            body = prologue + body
        fn.body = body

    def lower_body(self, body: list, frames: list[_Frame]):
        """Lower a statement list; returns (stmts, activated_frames)."""
        out: list = []
        activated: set[int] = set()  # indices into `frames`
        for idx, stmt in enumerate(body):
            rest = body[idx + 1 :]
            if isinstance(stmt, ast.Throw):
                out.extend(self._lower_throw(stmt, frames))
                activated.add(len(frames) - 1)
                # Statements after an unconditional throw are dead code.
                return out, activated
            if isinstance(stmt, ast.TryCatch):
                stmts, act = self._lower_try(stmt, frames)
                out.extend(stmts)
                activated |= act
                out_rest, act_rest = self._guarded_rest(rest, frames, act)
                out.extend(out_rest)
                return out, activated | act_rest
            if isinstance(stmt, ast.If):
                then_body, act_t = self.lower_body(stmt.then_body, frames)
                else_body, act_e = self.lower_body(stmt.else_body, frames)
                out.append(ast.If(stmt.cond, then_body, else_body, stmt.line))
                act = act_t | act_e
                activated |= act
                out_rest, act_rest = self._guarded_rest(rest, frames, act)
                out.extend(out_rest)
                return out, activated | act_rest
            call = _direct_call(stmt)
            if call is not None and call.func in self.may_throw:
                out.append(stmt)
                branch, act = self._exceptional_branch(call, frames, stmt.line)
                out.extend(branch)
                activated |= act
                out_rest, act_rest = self._guarded_rest(rest, frames, act)
                out.extend(out_rest)
                return out, activated | act_rest
            out.append(stmt)
        return out, activated

    def _guarded_rest(self, rest: list, frames: list[_Frame], act: set[int]):
        """Lower the continuation, guarded by the flags just activated."""
        stmts, activated = self.lower_body(rest, frames)
        if not stmts:
            return [], activated
        for index in sorted(act):
            frame = frames[index]
            guard = ast.Binary("==", ast.VarRef(frame.flag), ast.IntLit(0))
            stmts = [ast.If(guard, stmts, [])]
        return stmts, activated

    def _lower_throw(self, stmt: ast.Throw, frames: list[_Frame]) -> list:
        frame = frames[-1]
        return [
            ast.Event(stmt.var, "throw", line=stmt.line),
            ast.Assign(frame.exc, ast.VarRef(stmt.var), line=stmt.line),
            ast.Assign(frame.flag, ast.IntLit(1), line=stmt.line),
        ]

    def _lower_try(self, stmt: ast.TryCatch, frames: list[_Frame]):
        frame = _Frame(self.fresh("caught"), self.fresh("excv"), False)
        try_body, act_try = self.lower_body(stmt.try_body, frames + [frame])
        catch_body, act_catch = self.lower_body(stmt.catch_body, frames)
        local_index = len(frames)
        dispatch_cond = ast.Binary("==", ast.VarRef(frame.flag), ast.IntLit(1))
        dispatch = ast.If(
            dispatch_cond,
            [
                ast.Assign(stmt.catch_var, ast.VarRef(frame.exc), stmt.line),
                ast.Event(stmt.catch_var, "catch", line=stmt.line),
            ]
            + catch_body,
            [],
            line=stmt.line,
        )
        stmts = [
            ast.Assign(frame.flag, ast.IntLit(0), line=stmt.line),
            ast.Assign(frame.exc, ast.NullLit(), line=stmt.line),
            *try_body,
            dispatch,
        ]
        activated = {i for i in act_try if i != local_index} | act_catch
        return stmts, activated

    def _exceptional_branch(self, call: ast.Call, frames: list[_Frame], line):
        """The ``if (maybe-thrown) { bind; mark }`` branch after a call."""
        frame_index = len(frames) - 1
        frame = frames[frame_index]
        probe = self.fresh("excp")
        cond = ast.Binary(">", ast.VarRef(probe), ast.IntLit(0))
        branch = ast.If(
            cond,
            [
                ast.ExcLink(frame.exc, call.func, call.site, line=line),
                ast.Assign(frame.flag, ast.IntLit(1), line=line),
            ],
            [],
            line=line,
        )
        probe_value = ast.ThrownFlagOf(call.func, call.site)
        return (
            [ast.Assign(probe, probe_value, line=line), branch],
            {frame_index},
        )


def lower_exceptions(program: ast.Program,
                     may_throw: set[str] | None = None) -> ast.Program:
    """Remove throw/try/catch from every function (in place).

    ``may_throw`` is :func:`compute_may_throw` of the whole program; pass
    it when ``program`` holds only some of the program's functions.
    """
    if may_throw is None:
        may_throw = compute_may_throw(program)
    lowerer = _Lowerer(may_throw)
    for fn in program.functions.values():
        lowerer.lower_function(fn)
    return program


@dataclass(frozen=True, slots=True)
class EscapeSummary:
    """What exception lowering reads about one (normalised) function."""

    #: A ``throw`` outside any ``try``.
    throws: bool
    #: Direct callees called outside any ``try``.
    escaping: frozenset
    #: Every direct callee: lowering probes each one that may throw.
    callees: frozenset


def escape_summary(fn: ast.Function) -> EscapeSummary:
    """The function's :class:`EscapeSummary`; it depends on no other
    function, so :func:`may_throw_of` can combine cached ones."""
    escaping: set[str] = set()
    callees: set[str] = set()
    throws = _scan_escapes(fn.body, 0, escaping, callees)
    return EscapeSummary(throws, frozenset(escaping), frozenset(callees))


def _scan_escapes(body: list, try_depth: int, escaping: set,
                  callees: set) -> bool:
    throws = False
    for stmt in body:
        if isinstance(stmt, ast.Throw):
            throws |= try_depth == 0
        elif isinstance(stmt, ast.TryCatch):
            throws |= _scan_escapes(stmt.try_body, try_depth + 1, escaping,
                                    callees)
            throws |= _scan_escapes(stmt.catch_body, try_depth, escaping,
                                    callees)
        elif isinstance(stmt, ast.If):
            throws |= _scan_escapes(stmt.then_body, try_depth, escaping,
                                    callees)
            throws |= _scan_escapes(stmt.else_body, try_depth, escaping,
                                    callees)
        elif isinstance(stmt, ast.While):
            throws |= _scan_escapes(stmt.body, try_depth, escaping, callees)
        else:
            call = _direct_call(stmt)
            if call is not None:
                callees.add(call.func)
                if try_depth == 0:
                    escaping.add(call.func)
    return throws


def may_throw_of(summaries: dict[str, EscapeSummary]) -> set[str]:
    """Functions out of which an exception can escape to the caller.

    Least fixpoint: a function may throw if it contains a ``throw``
    outside any ``try``, or calls a may-throw function outside any
    ``try``.
    """
    may_throw = {name for name, s in summaries.items() if s.throws}
    changed = True
    while changed:
        changed = False
        for name, summary in summaries.items():
            if name not in may_throw and not summary.escaping.isdisjoint(
                    may_throw):
                may_throw.add(name)
                changed = True
    return may_throw


def compute_may_throw(program: ast.Program) -> set[str]:
    """:func:`may_throw_of` the program's functions."""
    return may_throw_of({
        name: escape_summary(fn) for name, fn in program.functions.items()
    })


# -- call normalisation ------------------------------------------------------


def normalize_calls(program: ast.Program) -> ast.Program:
    """Hoist nested calls/allocations so they appear only as direct RHS.

    After this pass, every :class:`~repro.lang.ast.Call` is the sole value
    of an ``Assign`` or the payload of an ``ExprStmt``, and every ``New`` is
    the sole value of an ``Assign`` -- the forms the CFET builder and graph
    generators consume.  ``return f(x)`` becomes ``__t = f(x); return __t``.
    """
    for fn in program.functions.values():
        # Temporaries are numbered per function: a function's lowered body
        # depends on nothing outside it.
        fn.body = _Normalizer().normalize_body(fn.body)
    return program


class _Normalizer:
    def __init__(self) -> None:
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"__t_{self.counter}"

    def normalize_body(self, body: list) -> list:
        out: list = []
        for stmt in body:
            out.extend(self.normalize_statement(stmt))
        return out

    def normalize_statement(self, stmt) -> list:
        pre: list = []
        if isinstance(stmt, ast.Assign):
            if isinstance(stmt.value, (ast.Call, ast.New)):
                # Already direct; only normalise call arguments.
                if isinstance(stmt.value, ast.Call):
                    stmt.value = self._normalize_call(stmt.value, pre, stmt.line)
                return pre + [stmt]
            stmt.value = self._hoist(stmt.value, pre, stmt.line)
            return pre + [stmt]
        if isinstance(stmt, ast.ExprStmt):
            stmt.call = self._normalize_call(stmt.call, pre, stmt.line)
            return pre + [stmt]
        if isinstance(stmt, ast.Return):
            if isinstance(stmt.value, (ast.Call, ast.New)):
                tmp = self.fresh()
                pre.append(ast.Assign(tmp, stmt.value, line=stmt.line))
                stmt.value = ast.VarRef(tmp)
            elif stmt.value is not None:
                stmt.value = self._hoist(stmt.value, pre, stmt.line)
            return pre + [stmt]
        if isinstance(stmt, ast.If):
            stmt.cond = self._hoist(stmt.cond, pre, stmt.line)
            stmt.then_body = self.normalize_body(stmt.then_body)
            stmt.else_body = self.normalize_body(stmt.else_body)
            return pre + [stmt]
        if isinstance(stmt, ast.While):
            stmt.cond = self._hoist(stmt.cond, pre, stmt.line)
            stmt.body = self.normalize_body(stmt.body)
            return pre + [stmt]
        if isinstance(stmt, ast.TryCatch):
            stmt.try_body = self.normalize_body(stmt.try_body)
            stmt.catch_body = self.normalize_body(stmt.catch_body)
            return pre + [stmt]
        return [stmt]

    def _normalize_call(self, call: ast.Call, pre: list, line: int) -> ast.Call:
        args = tuple(self._hoist(a, pre, line) for a in call.args)
        if args == call.args:
            return call
        return ast.Call(call.func, args, call.site)

    def _hoist(self, expr, pre: list, line: int):
        """Pull nested Call/New nodes out of an expression tree."""
        if isinstance(expr, (ast.Call, ast.New)):
            tmp = self.fresh()
            if isinstance(expr, ast.Call):
                expr = self._normalize_call(expr, pre, line)
            pre.append(ast.Assign(tmp, expr, line=line))
            return ast.VarRef(tmp)
        if isinstance(expr, ast.Binary):
            left = self._hoist(expr.left, pre, line)
            right = self._hoist(expr.right, pre, line)
            if left is expr.left and right is expr.right:
                return expr
            return ast.Binary(expr.op, left, right)
        if isinstance(expr, ast.Unary):
            operand = self._hoist(expr.operand, pre, line)
            if operand is expr.operand:
                return expr
            return ast.Unary(expr.op, operand)
        return expr


def _direct_call(stmt) -> ast.Call | None:
    """The called function if the statement is a direct call, else None."""
    if isinstance(stmt, ast.ExprStmt):
        return stmt.call
    if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
        return stmt.value
    return None
