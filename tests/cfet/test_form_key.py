"""The structural canonical-form key (``repro.cfet.encoding.form_key``).

The engine groups feasibility queries by this key and solves one query
per group, so the key must partition encodings *exactly* as the thing it
replaced did: serialise the decoded constraint, rename its variables by
first appearance (:func:`alpha_normalize`, kept here as the reference),
and compare the texts.  A coarser key would merge constraints that are
not alpha-equivalent (wrong verdicts); a finer one would change the
solver-call counters every golden pins.
"""

import random
import re

import pytest

from repro import EngineOptions, Grapple, GrappleOptions, default_checkers
from repro.cfet import encoding as enc
from repro.cfet.icfet import build_icfet
from repro.checkers.checker import pack_checkers
from repro.lang.parser import parse_program
from repro.lang.transform import lower_exceptions, normalize_calls, unroll_loops
from repro.smt import Result, Solver
from repro.smt import expr as E
from repro.smt.sexpr import serialize_expr
from repro.workloads.multifile import build_multifile_subject
from repro.workloads.subjects import build_subject

# -- the reference: alpha-normalised constraint text ---------------------------

#: A serialised variable node: ``(var int x)`` / ``(var bool b)``.
_VAR_PATTERN = re.compile(r"\(var (int|bool) ([^)]*)\)")


def alpha_normalize(text: str) -> str:
    """Rename a serialised constraint's variables by first appearance."""
    names: dict[str, str] = {}

    def rename(match: re.Match) -> str:
        key = match.group(0)
        canon = names.get(key)
        if canon is None:
            canon = names[key] = f"(var {match.group(1)} !{len(names)})"
        return canon

    return _VAR_PATTERN.sub(rename, text)


def reference_key(encodings, icfet) -> str:
    """What the engine keyed its form memo with before the structural
    key: the encodings' constraint texts, joined, normalised jointly."""
    return alpha_normalize(
        " ".join(
            serialize_expr(enc.decode_constraint(encoding, icfet))
            for encoding in encodings
        )
    )


def test_alpha_normalize_renames_by_first_appearance():
    text = "(and (== (var int x) (var int y)) (< (var int x) (int 3)))"
    assert alpha_normalize(text) == (
        "(and (== (var int !0) (var int !1)) (< (var int !0) (int 3)))"
    )


def test_alpha_normalize_is_sort_aware_and_stable():
    a = alpha_normalize("(== (var bool p) (var bool q))")
    b = alpha_normalize("(== (var bool q) (var bool r))")
    assert a == b == "(== (var bool !0) (var bool !1))"
    # Distinct variables stay distinct: no two names collapse to one.
    c = alpha_normalize("(== (var int a) (var int a))")
    assert c == "(== (var int !0) (var int !0))"
    d = alpha_normalize("(== (var int a) (var int b))")
    assert d != c


def test_alpha_normalize_idempotent():
    text = "(and (== (var int s) (var int t)) (var bool flag))"
    once = alpha_normalize(text)
    assert alpha_normalize(once) == once


# -- the corpus ----------------------------------------------------------------


def _interned(run) -> list:
    """Every encoding either phase's engine interned during ``run``."""
    seen: dict = {}
    for phase in (run.alias_phase, run.dataflow_phase):
        table = phase.engine_result.store.table
        for eid in range(len(table)):
            seen.setdefault(table.decode(eid))
    return list(seen)


@pytest.fixture(scope="module")
def zookeeper():
    run = Grapple(
        build_subject("zookeeper", 1.0).source,
        [c.fsm for c in default_checkers()],
        GrappleOptions(engine=EngineOptions()),
    ).run()
    return run.compiled.icfet, _interned(run)


@pytest.fixture(scope="module")
def gateway():
    run = Grapple(
        build_multifile_subject("gateway", 1.0).sources,
        [c.fsm for c in pack_checkers()],
        GrappleOptions(engine=EngineOptions()),
    ).run()
    return run.compiled.icfet, _interned(run)


#: Constant branch conditions fold to FALSE/TRUE literals; ``id`` gives
#: call/return edges with a result equation to wrap around them.
FOLDED = """
func id(a) {
    if (a < 0) { return a + 1; }
    return a;
}
func main(x) {
    var y = id(x);
    if (1 < 0) { y = id(y); }
    if (0 < 1) { y = 2; }
    if (y > x) { y = 0; }
    return;
}
"""


@pytest.fixture(scope="module")
def folded():
    program = parse_program(FOLDED)
    normalize_calls(program)
    unroll_loops(program)
    lower_exceptions(program)
    icfet = build_icfet(program)
    corpus = []
    for func, cfet in icfet.cfets.items():
        for node in cfet.nodes:
            for start in cfet.path_to_root(node):
                corpus.append((enc.interval(func, start, node),))
    for record in icfet.by_cid.values():
        leaf = max(icfet.cfets[record.callee].nodes)
        corpus.append((
            enc.call_elem(record.cid),
            enc.interval(record.callee, 0, leaf),
            enc.return_elem(record.rid),
        ))
    return icfet, corpus


#: Elements the ICFET knows nothing about: decoding skips them (an
#: unknown interval still overwrites the return edge's look-behind).
UNKNOWN = (("I", "no_such_func", 0, 2), ("C", 10**9), ("R", 10**9 + 1))


def _queries(corpus, rng: random.Random, extra: int) -> list:
    """Every corpus encoding on its own, plus ``extra`` seeded random
    queries: raw concatenations (call/return triples left uncancelled),
    reversals (whose leading returns have no matching call and take the
    fresh-caller-instance branch), splices of unknown elements, and
    multi-encoding tuples."""
    queries = [(encoding,) for encoding in corpus]

    def pick():
        return rng.choice(corpus)

    for _ in range(extra):
        kind = rng.randrange(6)
        if kind == 0:
            queries.append((pick() + pick(),))
        elif kind == 1:
            queries.append((enc.reverse(pick()),))
        elif kind == 2:
            queries.append((enc.reverse(pick()) + pick() + enc.reverse(pick()),))
        elif kind == 3:
            spliced = list(pick() + enc.reverse(pick()))
            for _ in range(rng.randint(1, 3)):
                spliced.insert(rng.randint(0, len(spliced)), rng.choice(UNKNOWN))
            queries.append((tuple(spliced),))
        elif kind == 4:
            queries.append(tuple(pick() for _ in range(rng.randint(2, 3))))
        else:
            queries.append((pick() + pick(), enc.reverse(pick()), pick()))
    return queries


def _assert_same_partition(icfet, queries, pieces=None) -> set:
    """``form_key(a) == form_key(b)`` iff the references agree; returns
    the distinct reference texts seen."""
    pieces = pieces or enc.FormPieces()
    by_key: dict = {}
    by_ref: dict = {}
    for query in queries:
        key = enc.form_key(query, icfet, pieces)
        ref = reference_key(query, icfet)
        assert by_key.setdefault(key, ref) == ref, (
            f"key {key} merges {by_key[key]!r} and {ref!r} ({query})"
        )
        assert by_ref.setdefault(ref, key) == key, (
            f"{ref!r} is split into keys {by_ref[ref]} and {key} ({query})"
        )
    return set(by_ref)


def test_key_partitions_zookeeper_encodings_like_the_text(zookeeper):
    icfet, corpus = zookeeper
    assert len(corpus) > 1000
    refs = _assert_same_partition(
        icfet, _queries(corpus, random.Random(13), 4000)
    )
    assert 10 < len(refs) < len(corpus)  # it does group, and not trivially


def test_key_partitions_gateway_encodings_like_the_text(gateway):
    icfet, corpus = gateway
    assert len(corpus) > 100
    refs = _assert_same_partition(
        icfet, _queries(corpus, random.Random(29), 4000)
    )
    assert 10 < len(refs) < len(corpus)


def test_false_absorbs_and_true_vanishes(folded):
    icfet, corpus = folded
    refs = _assert_same_partition(
        icfet, _queries(corpus, random.Random(5), 3000)
    )
    assert "(false)" in refs and "(true)" in refs
    # FALSE in a later conjunct un-mentions the earlier ones' variables:
    # the next encoding of the query numbers its variables from zero.
    assert any(ref.startswith("(false) ") and "!0" in ref for ref in refs)
    pieces = enc.FormPieces()
    main = icfet.cfets["main"]
    dead = next(
        (enc.interval("main", 0, node),) for node in sorted(main.nodes)
        if enc.decode_constraint((enc.interval("main", 0, node),), icfet)
        is E.FALSE
    )
    assert enc.form_key((dead,), icfet, pieces) == (-1,)
    assert enc.form_key((enc.single("main", 0),), icfet, pieces) == ()
    assert enc.form_key((enc.single("main", 0), dead), icfet, pieces) == (-2, -1)


def test_piece_cap_never_changes_a_key(folded, gateway):
    """A full piece table stops accepting writes; keys built through it
    are the keys an unbounded table gives, query for query."""
    for icfet, corpus in (folded, gateway):
        queries = _queries(corpus, random.Random(3), 300)
        roomy, cramped = enc.FormPieces(), enc.FormPieces(cap=2)
        for query in queries:
            assert enc.form_key(query, icfet, cramped) == enc.form_key(
                query, icfet, roomy
            )
        assert len(cramped.pieces) == 2 < len(roomy.pieces)


def test_constraint_form_key_matches_form_key(folded, gateway):
    """String mode keys parsed constraints through the same shape
    function: same partition as keying the encodings they came from."""
    for icfet, corpus in (folded, gateway):
        pieces = enc.FormPieces()
        by_key: dict = {}
        for query in _queries(corpus, random.Random(17), 500):
            constraints = [enc.decode_constraint(e, icfet) for e in query]
            key = enc.constraint_form_key(constraints, pieces)
            ref = reference_key(query, icfet)
            assert by_key.setdefault(key, ref) == ref
            assert key == enc.form_key(query, icfet, pieces)


def test_key_is_sort_aware_like_the_text():
    """``(var int v)`` and ``(var bool v)`` are two variables to the
    text, so they must be two variables to the key."""
    pieces = enc.FormPieces()
    negative = E.lt(E.IntVar("v"), E.IntConst(0))
    same_name = E.and_(negative, E.BoolVar("v"))
    two_names = E.and_(negative, E.BoolVar("w"))
    reused = E.and_(negative, E.eq(E.IntVar("v"), E.IntConst(1)))
    fresh = E.and_(negative, E.eq(E.IntVar("w"), E.IntConst(1)))

    def text(constraint):
        return alpha_normalize(serialize_expr(constraint))

    def key(constraint):
        return enc.constraint_form_key([constraint], pieces)

    assert text(same_name) == text(two_names)
    assert key(same_name) == key(two_names)
    assert text(reused) != text(fresh)
    assert key(reused) != key(fresh)


# -- the key is the solver's input ---------------------------------------------


def _key_verdict(key, pieces) -> bool:
    return Solver().check_literals(enc.key_literals(key, pieces)) is Result.SAT


def _decoded_verdict(query, icfet) -> bool:
    constraints = [enc.decode_constraint(e, icfet) for e in query]
    return Solver().check(E.and_(*constraints)) is Result.SAT


def test_key_solves_like_the_decoded_constraint(folded, gateway):
    """Solving a query's form key gives the verdict of solving its
    decoded conjunction, for every query of both corpora."""
    for icfet, corpus in (folded, gateway):
        pieces = enc.FormPieces()
        verdicts = set()
        for query in _queries(corpus, random.Random(41), 300):
            key = enc.form_key(query, icfet, pieces)
            verdict = _key_verdict(key, pieces)
            assert verdict == _decoded_verdict(query, icfet), query
            verdicts.add(verdict)
        assert verdicts == {True, False}


def _random_literal(rng: random.Random) -> E.Expr:
    ints = [E.IntVar(name) for name in ("a", "b", "c")]
    bools = [E.BoolVar(name) for name in ("p", "q")]

    def term():
        left = rng.choice(ints)
        kind = rng.randrange(4)
        if kind == 0:
            return E.add(left, E.IntConst(rng.randint(-3, 3)))
        if kind == 1:
            return E.mul(E.IntConst(rng.randint(-2, 2)), left)
        if kind == 2:
            return E.sub(left, rng.choice(ints))  # x - x cancels
        return E.mul(left, rng.choice(ints))  # not linear: opaque

    kind = rng.randrange(7)
    if kind == 0:
        return rng.choice(bools)
    if kind == 1:
        return E.not_(rng.choice(bools))
    if kind == 2:
        return E.eq(rng.choice(bools), rng.choice(bools))
    compare = rng.choice((E.lt, E.le, E.eq, E.ne))
    right = rng.choice((term(), E.IntConst(rng.randint(-3, 3))))
    return compare(term(), right)


def test_key_solves_random_conjunctions_like_the_solver():
    """Seeded conjunctions of linear, cancelling, non-linear, boolean
    and opaque literals, one to three constraints a query: the key's
    verdict is ``Solver.check``'s."""
    rng = random.Random(7)
    pieces = enc.FormPieces()
    verdicts = []
    for _ in range(600):
        constraints = [
            E.and_(*(_random_literal(rng) for _ in range(rng.randint(1, 5))))
            for _ in range(rng.randint(1, 3))
        ]
        key = enc.constraint_form_key(constraints, pieces)
        want = Solver().check(E.and_(*constraints)) is Result.SAT
        assert _key_verdict(key, pieces) == want, constraints
        verdicts.append(want)
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9


def test_stitched_interval_piece_is_the_path_constraints_piece(
    folded, gateway
):
    """An interval's piece, stitched from its CFET edges' pieces, is the
    piece of its ``path_constraint``."""
    for icfet, _corpus in (folded, gateway):
        pieces = enc.FormPieces()
        intervals = 0
        for cfet in icfet.cfets.values():
            for node in cfet.nodes:
                for start in cfet.path_to_root(node):
                    assert pieces.of_interval(
                        cfet, start, node
                    ) == pieces.of_literals(
                        (cfet.path_constraint(start, node),), None
                    )
                    intervals += 1
        assert intervals > len(icfet.cfets)


def test_piece_cap_never_changes_a_verdict(folded, gateway):
    """A ``FormPieces(cap=2)`` -- pieces and templates both full after
    two writes -- gives every key and verdict an uncapped table gives."""
    for icfet, corpus in (folded, gateway):
        roomy, cramped = enc.FormPieces(), enc.FormPieces(cap=2)
        for query in _queries(corpus, random.Random(43), 200):
            key = enc.form_key(query, icfet, cramped)
            assert key == enc.form_key(query, icfet, roomy)
            assert _key_verdict(key, cramped) == _key_verdict(key, roomy)
        assert len(cramped.templates) == 2 < len(roomy.templates)
