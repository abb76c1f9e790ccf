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
(computed once per distinct element, an interval's from per-CFET-edge
pieces) along the same walk.  The key holds the constraint up to that
renaming, so :func:`key_literals` turns it into the solver's input
directly; :func:`decode_constraint` is left for witness models and the
baselines.
"""

from __future__ import annotations

import sys

from repro.smt import expr as E
from repro.smt.linear import LinearAtom
from repro.smt.solver import FALSE_LITERAL, Literal, literal_of
from repro.cfet.icfet import Icfet

# Tags.
INTERVAL = "I"
CALL = "C"
RETURN = "R"

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
    seq: list = []
    for elem in enc1:
        _push(seq, elem, icfet)
    for elem in enc2:
        _push(seq, elem, icfet)
    if len(seq) > MAX_ELEMENTS:
        return None
    return tuple(seq)


def _push(seq: list, elem: tuple, icfet: Icfet) -> None:
    """Append ``elem`` to a sequence in normal form and reduce at its end.

    The two rewrites -- chaining ``[a, b] [b, c]`` of one method into
    ``[a, c]``, and dropping a completed ``(C, callee-path, R)`` triple
    -- have no overlap that could be reduced two ways, so every order
    of applying them reaches the same normal form.  ``seq`` holds no
    redex, so one can only end at the new element, and reducing it
    leaves none behind: a chained interval starts where the old last
    one did, and a dropped triple uncovers an end that was already
    irreducible.
    """
    tag = elem[0]
    if tag == INTERVAL:
        if seq:
            last = seq[-1]
            if last[0] == INTERVAL and last[1] == elem[1] and last[3] == elem[2]:
                seq[-1] = (INTERVAL, elem[1], last[2], elem[3])
                return
    elif tag == RETURN and len(seq) >= 2:
        call, path = seq[-2], seq[-1]
        if (
            call[0] == CALL
            and path[0] == INTERVAL
            and path[2] == 0  # the callee path is complete (root to leaf)
            and _matched(call[1], elem[1], icfet)
        ):
            # Case 3: the callee part has completed; drop the triple.
            del seq[-2:]
            return
    seq.append(elem)


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

# Piece-table tag of one CFET edge's piece, keyed ``(_EDGE, func, child)``.
_EDGE = "E"


class FormPieces:
    """The per-element partial results :func:`form_key` stitches together,
    and the literal templates :func:`key_literals` solves a key with.

    A *piece* is what one walked element contributes to the conjunction,
    flattened the way :func:`repro.smt.expr.and_` flattens it: a tuple of
    ``(shape id, ((symbol id, in callee namespace?), ...))`` per literal,
    with TRUE literals dropped, or ``None`` when a literal is FALSE.  An
    interval's piece is stitched from the pieces of the CFET edges on its
    path (bottom-up, as :meth:`repro.cfet.cfet.Cfet.path_constraint`
    lists their literals), each computed once per ``(func, child node)``.
    Shapes (a literal with its variables blanked to their sorts) and
    symbols (``(name, sort)``) are interned to dense ids here, so keys
    built through one ``FormPieces`` are comparable with each other and
    with no others.  ``cap`` bounds the piece and template tables like
    the engine's other id-keyed memos: once full they stop accepting
    writes, which costs recomputation but never changes a key or a
    verdict.
    """

    __slots__ = ("cap", "pieces", "shapes", "symbols", "shape_list",
                 "arity", "templates")

    def __init__(self, cap: int = sys.maxsize):
        self.cap = cap
        self.pieces: dict = {}
        self.shapes: dict = {}
        self.symbols: dict = {}
        # Shape id -> its shape, and the number of variable occurrences
        # it blanks (how many slots follow the id in a key).
        self.shape_list: list = []
        self.arity: list[int] = []
        # (shape id, occurrence pattern) -> literal template.
        self.templates: dict = {}

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
                shape_id = shapes.get(shape)
                if shape_id is None:
                    shape_id = shapes[shape] = len(self.shape_list)
                    self.shape_list.append(shape)
                    self.arity.append(len(variables))
                piece.append((
                    shape_id,
                    tuple(
                        (
                            symbols.setdefault(var, len(symbols)),
                            prefix is not None and var[0].startswith(prefix),
                        )
                        for var in variables
                    ),
                ))
        return tuple(piece)

    def of_interval(self, cfet, start: int, end: int):
        """The piece of the interval ``[start, end]`` on ``cfet``: its
        edges' pieces from ``end`` up to ``start``, concatenated."""
        cache = self.pieces
        piece: list = []
        node = end
        while node != start:
            if node == 0:
                raise ValueError(f"{start} is not an ancestor of {end}")
            edge_key = (_EDGE, cfet.func, node)
            edge = cache.get(edge_key, _UNCACHED)
            if edge is _UNCACHED:
                edge = self.of_literals((cfet.condition_of_edge(node),), None)
                if len(cache) < self.cap:
                    cache[edge_key] = edge
            if edge is _ABSORBED:
                return _ABSORBED
            piece.extend(edge)
            node = (node - 1) >> 1
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
    equisatisfiable, and the key holds the conjunction up to that
    renaming, so :func:`key_literals` solves the key itself.  The key is a
    flat tuple: per literal its shape id followed by the first-appearance
    number (its *slot*) of each variable occurrence, where a variable is
    a ``(symbol, invocation instance)`` pair under the same instance
    discipline as :func:`decode_constraint` (a fresh instance stack per
    encoding, one numbering across the query).
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
                if record is not None:
                    piece = pieces.of_literals(
                        _element_literals(elem, record, last, icfet),
                        record.callee,
                    )
                else:
                    cfet = icfet.cfets.get(elem[1])
                    piece = () if cfet is None else pieces.of_interval(
                        cfet, elem[2], elem[3]
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


# -- solving a key ----------------------------------------------------------------


def key_literals(key: tuple, pieces: FormPieces) -> list:
    """The solver literals (:class:`repro.smt.solver.Literal`) of the
    conjunction ``key`` stands for, over variables named by slot, in the
    key's literal order; ``[FALSE_LITERAL]`` when one of its constraints
    is FALSE.  ``pieces`` must be the table that interned the key's
    shapes.

    A literal's template is made once per shape and *occurrence
    pattern* (its slots renumbered by first appearance within the
    literal, so ``x - x`` cancels as it does when decoded): a linear atom
    over pattern positions, filled by renaming; any other literal (a
    boolean variable, an opaque comparison) is rebuilt and classified
    with its slots as names.
    """
    literals: list = []
    arity, shape_list, templates = pieces.arity, pieces.shape_list, pieces.templates
    position, end = 0, len(key)
    while position < end:
        shape_id = key[position]
        position += 1
        if shape_id < 0:
            if shape_id == _FALSE_KEY:
                return [FALSE_LITERAL]
            continue
        stop = position + arity[shape_id]
        local: dict = {}
        pattern = tuple(
            local.setdefault(slot, len(local)) for slot in key[position:stop]
        )
        position = stop
        slots = tuple(local)
        template_key = (shape_id, pattern)
        template = templates.get(template_key)
        if template is None:
            template = _template(shape_list[shape_id], pattern)
            if len(templates) < pieces.cap:
                templates[template_key] = template
        if type(template) is tuple:
            coeffs, const, rel, positive = template
            literals.append(Literal(
                LinearAtom(
                    tuple(sorted((slots[i], c) for i, c in coeffs)), const, rel
                ),
                positive,
            ))
        else:
            literals.append(literal_of(
                E.rename_variables(template, lambda n: str(slots[int(n)]))
            ))
    return literals


def _template(shape, pattern: tuple):
    """A literal template for ``shape`` with its variable occurrences
    named by ``pattern``: ``(coeffs by pattern position, const, rel,
    positive)`` for a linear atom, else the rebuilt literal itself."""
    names = iter(pattern)
    term = _rebuild(shape, names)
    literal = literal_of(term)
    if literal is None:
        raise ValueError(f"not a conjunction of literals: {term!r}")
    atom = literal.atom
    if isinstance(atom, LinearAtom):
        return (
            tuple((int(name), c) for name, c in atom.coeffs),
            atom.const, atom.rel, literal.positive,
        )
    return term


def _rebuild(shape, names):
    """The expression ``shape`` blanks, its variables named ``str`` of
    successive ``names`` (the inverse of :func:`_shape`)."""
    if isinstance(shape, str):
        return E.Expr(E.VAR, (str(next(names)),), shape)
    kind = shape[0]
    if kind == E.INT_CONST:
        return E.IntConst(shape[1])
    if kind == E.BOOL_CONST:
        return E.BoolConst(shape[1])
    args = tuple(_rebuild(arg, names) for arg in shape[1:])
    sort = "int" if kind in (E.ADD, E.MUL) else "bool"
    return E.Expr(kind, args, sort)
