"""Interval-sequence path encodings (paper §3.1-§3.2, §4.2).

An encoding is a tuple of elements:

* ``("I", func, start, end)`` -- an interval on ``func``'s CFET: the path
  from node ``start`` down to node ``end``;
* ``("C", cid)`` -- the ICFET call edge of call record ``cid``;
* ``("R", rid)`` -- the ICFET return edge of call record ``rid``.

:func:`merge` implements the paper's four composition cases: chaining of
adjacent intervals in the same method, plain concatenation around single
call/return ids, and cancellation of completed ``(C, callee-path, R)``
triples.  :func:`reverse` produces the encoding of a *bar* (reversed) edge;
path constraints are direction-independent, so intervals are kept and call
and return ids swap roles.

:func:`decode_constraint` is Algorithm 1 extended interprocedurally: each
interval contributes its branch literals, each call edge its parameter-
passing equations, each return edge its result equation.  Symbols are given
per-invocation instances (``foo::x@2``) so that two invocations of the same
method on one path do not share constraint variables.

:func:`form_key` answers "do these encodings decode to the same constraint
up to variable names?" without decoding: it stitches per-element pieces
(computed once per distinct element) along the same walk.
"""

from __future__ import annotations

import sys

from repro.smt import expr as E
from repro.cfet.icfet import Icfet

# Tags.
INTERVAL = "I"
CALL = "C"
RETURN = "R"
BREAK = ("B",)  # retained for API compatibility; merge never emits it

# Encodings longer than this are refused (merge returns None and the engine
# drops the composition).  The paper notes encoding length is bounded by
# call depth, which is small in practice.
MAX_ELEMENTS = 64

Encoding = tuple


def interval(func: str, start: int, end: int) -> tuple:
    """Encoding element for a CFET path from ``start`` down to ``end``."""
    return (INTERVAL, func, start, end)


def call_elem(cid: int) -> tuple:
    """Encoding element for an ICFET call edge."""
    return (CALL, cid)


def return_elem(rid: int) -> tuple:
    """Encoding element for an ICFET return edge."""
    return (RETURN, rid)


def single(func: str, node_id: int) -> Encoding:
    """The encoding ``{[i, i]}`` of an edge inside one basic block."""
    return (interval(func, node_id, node_id),)


def merge(enc1: Encoding, enc2: Encoding, icfet: Icfet) -> Encoding | None:
    """Compose two path encodings (the four cases of §4.2).

    Returns None when the composition exceeds :data:`MAX_ELEMENTS`.
    """
    seq = list(enc1) + list(enc2)
    _normalize(seq, icfet)
    if len(seq) > MAX_ELEMENTS:
        return None
    return tuple(seq)


def _normalize(seq: list, icfet: Icfet) -> None:
    """Apply interval chaining and call/return cancellation to fixpoint."""
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(seq):
            a, b = seq[i], seq[i + 1]
            if (
                a[0] == INTERVAL
                and b[0] == INTERVAL
                and a[1] == b[1]
                and a[3] == b[2]
            ):
                seq[i : i + 2] = [(INTERVAL, a[1], a[2], b[3])]
                changed = True
                continue
            i += 1
        i = 0
        while i + 2 < len(seq):
            a, m, b = seq[i], seq[i + 1], seq[i + 2]
            if (
                a[0] == CALL
                and m[0] == INTERVAL
                and b[0] == RETURN
                and _matched(a[1], b[1], icfet)
                and m[2] == 0  # the callee path is complete (root to leaf)
            ):
                # Case 3: the callee part has completed; drop the triple.
                seq[i : i + 3] = []
                changed = True
                continue
            i += 1


def _matched(cid: int, rid: int, icfet: Icfet) -> bool:
    record = icfet.by_rid.get(rid)
    return record is not None and record.cid == cid


def reverse(enc: Encoding) -> Encoding:
    """Encoding of the reversed (bar) edge."""
    out = []
    for elem in reversed(enc):
        if elem[0] == CALL:
            record_cid = elem[1]
            out.append((RETURN, _rid_of_cid(record_cid)))
        elif elem[0] == RETURN:
            out.append((CALL, _cid_of_rid(elem[1])))
        else:
            out.append(elem)
    return tuple(out)


# cid and rid are allocated as consecutive ids by the CFET builder; keep
# the pairing logic in one place in case that ever changes.
def _rid_of_cid(cid: int) -> int:
    return cid + 1


def _cid_of_rid(rid: int) -> int:
    return rid - 1


def _walk(enc: Encoding, icfet: Icfet):
    """The instance-stack discipline of §3.2, shared by
    :func:`decode_constraint` and :func:`form_key` so the two cannot drift.

    Yields ``(elem, record, last_interval, callee_inst, caller_inst)`` for
    every element that can contribute literals: ``record`` is None for an
    interval (whose symbols all take ``caller_inst``), else the call record
    of the call/return edge; ``last_interval`` is the ``(func, end_node)``
    of the element preceding a return edge, when that was an interval.
    """
    stack: list[int] = [0]
    next_instance = 1
    last_interval: tuple | None = None
    for elem in enc:
        tag = elem[0]
        if tag == INTERVAL:
            inst = stack[-1]
            yield elem, None, None, inst, inst
            last_interval = (elem[1], elem[3])
            continue
        if tag == CALL:
            record = icfet.by_cid.get(elem[1])
            if record is None:
                continue
            caller_inst = stack[-1]
            callee_inst = next_instance
            next_instance += 1
            stack.append(callee_inst)
            yield elem, record, None, callee_inst, caller_inst
            last_interval = None
            continue
        if tag == RETURN:
            record = icfet.by_rid.get(elem[1])
            if record is None:
                continue
            if len(stack) > 1:
                callee_inst = stack.pop()
                caller_inst = stack[-1]
            else:
                # Walking out of a callee whose entry we never saw (reversed
                # fragments); give the caller side a fresh instance.
                callee_inst = stack[-1]
                caller_inst = next_instance
                next_instance += 1
                stack[-1] = caller_inst
            yield elem, record, last_interval, callee_inst, caller_inst
            last_interval = None


def _element_literals(elem, record, last_interval, icfet: Icfet):
    """Un-instanced literals one walked element contributes: an interval
    its branch literals, a call edge its parameter-passing equations, a
    return edge its result equations."""
    if record is None:
        cfet = icfet.cfets.get(elem[1])
        if cfet is None:
            return ()
        return (cfet.path_constraint(elem[2], elem[3]),)
    if elem[0] == CALL:
        return record.equations
    return _return_equations(record, last_interval, icfet)


def decode_constraint(enc: Encoding, icfet: Icfet) -> E.Expr:
    """Recover the path constraint of an encoding (Algorithm 1 + §3.2).

    Returns a boolean :class:`repro.smt.expr.Expr`; the caller sends it to
    the solver.
    """
    literals: list[E.Expr] = []
    for elem, record, last, callee_inst, caller_inst in _walk(enc, icfet):
        for literal in _element_literals(elem, record, last, icfet):
            if record is None:
                literals.append(_instanced(literal, caller_inst))
            else:
                literals.append(
                    _instanced_by_namespace(
                        literal, record.callee, callee_inst, caller_inst
                    )
                )
    return E.and_(*literals)


def _return_equations(record, last_interval, icfet: Icfet) -> list:
    """Equations contributed by one return edge: the result value and the
    callee's ``__thrown`` register, when determinable from the preceding
    callee-path fragment."""
    if last_interval is None or last_interval[0] != record.callee:
        return []
    leaf = icfet.cfets[record.callee].nodes.get(last_interval[1])
    if leaf is None:
        return []
    equations = []
    if (
        record.result_symbol is not None
        and leaf.return_value is not None
        and leaf.return_value.sort == "int"
    ):
        equations.append(E.eq(E.IntVar(record.result_symbol), leaf.return_value))
    if (
        record.thrown_symbol is not None
        and leaf.thrown_value is not None
        and leaf.thrown_value.sort == "int"
    ):
        equations.append(E.eq(E.IntVar(record.thrown_symbol), leaf.thrown_value))
    return equations


def _instanced(expr: E.Expr, instance: int) -> E.Expr:
    if instance == 0:
        return expr
    return E.rename_variables(expr, lambda n: f"{n}@{instance}")


def _instanced_by_namespace(
    expr: E.Expr, callee: str, callee_inst: int, caller_inst: int
) -> E.Expr:
    """Suffix callee-namespaced symbols with the callee instance and all
    other (caller-side) symbols with the caller instance."""
    prefix = f"{callee}::"

    def rename(name: str) -> str:
        inst = callee_inst if name.startswith(prefix) else caller_inst
        return name if inst == 0 else f"{name}@{inst}"

    return E.rename_variables(expr, rename)


# -- structural canonical-form keys ---------------------------------------------

# Key markers; shape ids and variable indexes are non-negative.
_FALSE_KEY = -1  # the encoding's conjunction is FALSE
_NEXT_KEY = -2  # boundary between the encodings of one query

_ABSORBED = None  # piece of an element that contributes a FALSE literal
_UNCACHED = object()


class FormPieces:
    """The per-element partial results :func:`form_key` stitches together.

    A *piece* is what one walked element contributes to the conjunction,
    flattened the way :func:`repro.smt.expr.and_` flattens it: a tuple of
    ``(shape id, ((symbol id, in callee namespace?), ...))`` per literal,
    with TRUE literals dropped, or ``None`` when a literal is FALSE.
    Shapes (a literal with its variables blanked to their sorts) and
    symbols (``(name, sort)``) are interned to dense ids here, so keys
    built through one ``FormPieces`` are comparable with each other and
    with no others.  ``cap`` bounds the piece table like the engine's other
    id-keyed memos: once full it stops accepting writes, which costs
    recomputation but never changes a key.
    """

    __slots__ = ("cap", "pieces", "shapes", "symbols")

    def __init__(self, cap: int = sys.maxsize):
        self.cap = cap
        self.pieces: dict = {}
        self.shapes: dict = {}
        self.symbols: dict = {}

    def of_literals(self, literals, callee: str | None):
        """The piece of un-instanced ``literals``; symbols prefixed
        ``callee::`` are flagged as living in the callee's namespace."""
        prefix = None if callee is None else f"{callee}::"
        shapes, symbols = self.shapes, self.symbols
        piece = []
        for literal in literals:
            for term in literal.args if literal.kind == E.AND else (literal,):
                if term is E.FALSE:
                    return _ABSORBED
                if term is E.TRUE:
                    continue
                variables: list = []
                shape = _shape(term, variables)
                piece.append((
                    shapes.setdefault(shape, len(shapes)),
                    tuple(
                        (
                            symbols.setdefault(var, len(symbols)),
                            prefix is not None and var[0].startswith(prefix),
                        )
                        for var in variables
                    ),
                ))
        return tuple(piece)


def _shape(expr: E.Expr, variables: list):
    """``expr`` with every variable blanked to its sort; the blanked
    ``(name, sort)`` pairs are appended to ``variables`` in pre-order."""
    if expr.kind == E.VAR:
        variables.append((expr.args[0], expr.sort))
        return expr.sort
    if expr.is_const:
        return (expr.kind, expr.args[0])
    return (expr.kind, *[_shape(arg, variables) for arg in expr.args])


def _emit(piece, callee_inst: int, caller_inst: int, index: dict, append) -> None:
    """Append one piece's literals to a key: per literal its shape id,
    then each variable occurrence's first-appearance number in ``index``."""
    for shape_id, occurrences in piece:
        append(shape_id)
        for symbol_id, in_callee in occurrences:
            var = (symbol_id, callee_inst if in_callee else caller_inst)
            slot = index.get(var)
            if slot is None:
                slot = index[var] = len(index)
            append(slot)


def form_key(encodings, icfet: Icfet, pieces: FormPieces) -> tuple:
    """Canonical-form key of the conjunction of the encodings' constraints,
    computed from the encodings' shape alone -- nothing is decoded.

    Two encoding tuples get the same key exactly when their decoded
    constraints, rendered one after the other, are equal up to a renaming
    of variables by first appearance; alpha-equivalent conjunctions are
    equisatisfiable, so one solver verdict answers every query with the
    same key.  The key is a flat tuple: per literal its shape id followed
    by the first-appearance number of each variable occurrence, where a
    variable is a ``(symbol, invocation instance)`` pair under the same
    instance discipline as :func:`decode_constraint` (a fresh instance
    stack per encoding, one numbering across the query).
    """
    index: dict = {}
    key: list = []
    append = key.append
    cache = pieces.pieces
    for position, enc in enumerate(encodings):
        if position:
            append(_NEXT_KEY)
        mark, known = len(key), len(index)
        for elem, record, last, callee_inst, caller_inst in _walk(enc, icfet):
            piece_key = elem if last is None else (elem, last)
            piece = cache.get(piece_key, _UNCACHED)
            if piece is _UNCACHED:
                piece = pieces.of_literals(
                    _element_literals(elem, record, last, icfet),
                    None if record is None else record.callee,
                )
                if len(cache) < pieces.cap:
                    cache[piece_key] = piece
            if piece:
                _emit(piece, callee_inst, caller_inst, index, append)
            elif piece is _ABSORBED:
                # FALSE absorbs this constraint: its earlier literals, and
                # the variables only they mention, are not in the formula.
                del key[mark:]
                while len(index) > known:
                    index.popitem()
                append(_FALSE_KEY)
                break
    return tuple(key)


def constraint_form_key(constraints, pieces: FormPieces) -> tuple:
    """:func:`form_key` for constraints that are already expressions (the
    string-constraint baseline parses them off its edges)."""
    index: dict = {}
    key: list = []
    for position, constraint in enumerate(constraints):
        if position:
            key.append(_NEXT_KEY)
        piece = pieces.of_literals((constraint,), None)
        if piece is _ABSORBED:
            key.append(_FALSE_KEY)
        else:
            _emit(piece, 0, 0, index, key.append)
    return tuple(key)
