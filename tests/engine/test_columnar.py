"""Unit and property tests for the columnar edge store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import serialize
from repro.engine.columnar import ROW_BYTES, EdgeColumns, EncodingTable

ENC_A = (("I", "f", 0, 1),)
ENC_B = (("I", "f", 0, 2),)
ENC_S = (("S", "x" * 100),)


def make(edges, table=None):
    if table is None:  # not `or`: an empty EncodingTable is falsy
        table = EncodingTable()
    return EdgeColumns.from_dict(edges, table)


def test_encoding_table_hash_conses():
    table = EncodingTable()
    a = table.intern(ENC_A)
    b = table.intern(ENC_B)
    assert a != b
    assert table.intern(ENC_A) == a
    assert table.decode(a) == ENC_A
    assert len(table) == 2


def test_encoding_table_row_bytes_counts_strings():
    table = EncodingTable()
    plain = table.intern(ENC_A)
    stringy = table.intern(ENC_S)
    assert table.row_bytes(plain) == ROW_BYTES
    assert table.row_bytes(stringy) == ROW_BYTES + 64 + 100
    assert table.has_extras()


def test_has_extras_flips_on_the_first_string_element():
    """A running total kept by ``intern`` (it used to scan the whole
    table on every disk load and split)."""
    table = EncodingTable()
    assert not table.has_extras()
    for i in range(50):
        table.intern((("I", "f", 0, i), ("C", i), ("R", i)))
    assert not table.has_extras()
    table.intern((("I", "f", 0, 1), ("S", "")))  # 64 bytes of overhead
    assert table.has_extras()
    table.intern(ENC_A)
    assert table.has_extras()


def test_from_dict_roundtrips():
    edges = {
        1: {(2, 0): {ENC_A, ENC_B}},
        5: {(1, 3): {ENC_A}},
    }
    cols = make(edges)
    assert cols.to_dict() == edges
    assert cols.edge_count == 3


def test_insert_and_contains():
    table = EncodingTable()
    cols = make({1: {(2, 0): {ENC_A}}}, table)
    a = table.intern(ENC_A)
    b = table.intern(ENC_B)
    c = table.intern(ENC_S)
    assert cols.admit(1, 2, 0, a, 3) is None  # present in the base
    assert cols.admit(1, 2, 0, b, 1) is None  # the base fills the cap
    assert cols.admit(1, 2, 0, b, 3) == set()  # a new overlay slot ...
    assert cols.extra == {}  # ... attached only by add
    assert cols.insert(1, 2, 0, b)
    assert not cols.insert(1, 2, 0, b)  # duplicate in overlay
    assert not cols.insert(1, 2, 0, a)  # duplicate in base
    assert cols.admit(1, 2, 0, b, 3) is None  # present in the overlay
    assert cols.admit(1, 2, 0, c, 2) is None  # base + overlay fill the cap
    slot = cols.admit(1, 2, 0, c, 3)
    assert slot == {b}
    cols.add(1, 2, 0, slot, c)
    assert cols.edge_count == 3
    assert cols.columnar_bytes() == 2 * ROW_BYTES + table.row_bytes(c)


def test_out_rows_merges_base_and_overlay():
    table = EncodingTable()
    cols = make({1: {(2, 0): {ENC_A}}}, table)
    b = table.intern(ENC_B)
    cols.insert(1, 3, 1, b)
    rows = sorted(cols.out_rows(1))
    assert rows == sorted([(2, 0, table.intern(ENC_A)), (3, 1, b)])
    assert cols.out_rows(99) == []


def test_byte_accounting_tracks_inserts():
    table = EncodingTable()
    cols = make({1: {(2, 0): {ENC_A}}}, table)
    before = cols.columnar_bytes()
    cols.insert(1, 9, 0, table.intern(ENC_S))
    assert cols.columnar_bytes() == before + ROW_BYTES + 64 + 100


def test_compact_preserves_contents_and_sorts():
    table = EncodingTable()
    cols = make({4: {(1, 0): {ENC_A}}, 2: {(3, 1): {ENC_B}}}, table)
    cols.insert(3, 7, 2, table.intern(ENC_A))
    cols.insert(0, 1, 0, table.intern(ENC_B))
    snapshot = cols.to_dict()
    cols.compact()
    assert not cols.extra
    assert cols.to_dict() == snapshot
    assert list(cols.src) == sorted(cols.src)


def test_split_at_partitions_sources():
    table = EncodingTable()
    cols = make({i: {(i + 1, 0): {ENC_A}} for i in range(10)}, table)
    cols.insert(3, 99, 1, table.intern(ENC_B))
    left, right = cols.split_at(5)
    assert set(left.iter_sources()) == {0, 1, 2, 3, 4}
    assert set(right.iter_sources()) == {5, 6, 7, 8, 9}
    assert left.edge_count + right.edge_count == 11
    assert left.columnar_bytes() + right.columnar_bytes() == ROW_BYTES * 11


def test_encode_parses_back_with_fresh_table():
    """The file holds ids: a fresh table resolves them once it has
    interned the same encodings in the same order (what ``--resume``
    does from the encoding log), and refuses them before that."""
    table = EncodingTable()
    edges = {1: {(2, 0): {ENC_A, ENC_B}}, 3: {(4, 1): {ENC_S}}}
    cols = make(edges, table)
    data = cols.encode()
    fresh = EncodingTable()
    with pytest.raises(serialize.CorruptPartition, match="out of range"):
        EdgeColumns.from_file(serialize.parse_columnar(data), fresh)
    for encoding in table.since(0):
        fresh.intern(encoding)
    rebuilt = EdgeColumns.from_file(serialize.parse_columnar(data), fresh)
    assert rebuilt.to_dict() == edges


def test_from_file_adopts_the_ids_of_the_shared_table():
    shared = EncodingTable()
    shared.intern(ENC_B)  # occupy id 0: the row's id is 1, in memory and on disk
    edges = {1: {(2, 0): {ENC_A}}}
    before = make(edges, shared)
    parsed = serialize.parse_columnar(before.encode())
    assert parsed.n_encodings == len(shared) == 2
    assert list(parsed.enc) == [1]
    cols = EdgeColumns.from_file(parsed, shared)
    assert cols.enc is parsed.enc  # adopted, not remapped
    assert cols.to_dict() == edges
    assert len(shared) == 2  # nothing was re-interned


@pytest.mark.parametrize("encodings", [[ENC_A, ENC_B], [ENC_A, ENC_S]])
def test_from_file_accounts_the_bytes_it_had_before_eviction(encodings):
    table = EncodingTable()
    cols = make({i: {(i + 1, 0): set(encodings)} for i in range(6)}, table)
    cols.insert(2, 9, 1, table.intern(encodings[-1]))
    want = cols.columnar_bytes()
    back = EdgeColumns.from_file(serialize.parse_columnar(cols.encode()), table)
    assert back.columnar_bytes() == want == sum(
        table.row_bytes(eid) for _s, _d, _l, eid in back.iter_rows()
    )


# -- property-based ---------------------------------------------------------

_encodings = st.lists(
    st.one_of(
        st.tuples(st.just("I"), st.sampled_from(["f", "g"]),
                  st.integers(0, 50), st.integers(0, 50)),
        st.tuples(st.just("S"), st.text(max_size=10)),
    ),
    min_size=1, max_size=3,
).map(tuple)

_partitions = st.dictionaries(
    st.integers(0, 40),
    st.dictionaries(
        st.tuples(st.integers(0, 40), st.integers(0, 5)),
        st.sets(_encodings, min_size=1, max_size=3),
        min_size=1, max_size=3,
    ),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(_partitions, _partitions)
def test_columns_equal_dict_semantics(base, extra):
    """EdgeColumns under inserts behaves exactly like the dict store."""
    table = EncodingTable()
    cols = EdgeColumns.from_dict(base, table)
    model = {
        s: {k: set(v) for k, v in targets.items()}
        for s, targets in base.items()
    }
    for s, targets in extra.items():
        for (d, l), encodings in targets.items():
            for encoding in encodings:
                expect_new = encoding not in model.get(s, {}).get((d, l), set())
                got_new = cols.insert(s, d, l, table.intern(encoding))
                assert got_new == expect_new
                model.setdefault(s, {}).setdefault((d, l), set()).add(encoding)
    assert cols.to_dict() == model
    assert cols.edge_count == sum(
        len(v) for t in model.values() for v in t.values()
    )
    # Per-source views agree too.
    for s in set(model) | {-1}:
        expected = sorted(
            (d, l, table.intern(e))
            for (d, l), encs in model.get(s, {}).items()
            for e in encs
        )
        assert sorted(cols.out_rows(s)) == expected
    # And the whole thing survives compaction + disk.
    parsed = serialize.parse_columnar(cols.encode())
    assert EdgeColumns.from_file(parsed, table).to_dict() == model


_admits = st.lists(
    st.one_of(
        st.just(None),  # compact()
        st.tuples(
            st.integers(0, 4), st.integers(0, 4), st.integers(0, 1),
            st.integers(0, 5), st.booleans(),
        ),
    ),
    max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(_partitions, _admits, st.integers(1, 4))
def test_one_probe_admit_matches_a_capped_dict_of_sets(base, ops, cap):
    """The engine's insert path -- ``admit``, the feasibility check,
    then ``add`` or a drop -- against a reference model: a dict of sets
    that takes an encoding when it is new to its ``(src, dst, label)``
    slot and the slot holds fewer than ``cap``.  ``compact()`` between
    inserts moves the overlay into the base and changes no answer; a
    dropped edge leaves nothing behind."""
    table = EncodingTable()
    cols = EdgeColumns.from_dict(base, table)
    model = {
        (s, d, l): {table.intern(e) for e in encodings}
        for s, targets in base.items()
        for (d, l), encodings in targets.items()
    }
    for op in ops:
        if op is None:
            cols.compact()
            continue
        s, d, l, e, feasible = op
        eid = table.intern((("I", "f", 0, e),))
        held = model.get((s, d, l), set())
        slot = cols.admit(s, d, l, eid, cap)
        assert (slot is not None) == (eid not in held and len(held) < cap)
        if slot is not None and feasible:
            cols.add(s, d, l, slot, eid)
            model.setdefault((s, d, l), set()).add(eid)
    rows = sorted(cols.iter_rows())
    assert rows == sorted(
        (s, d, l, eid) for (s, d, l), eids in model.items() for eid in eids
    )
    assert cols.iter_sources() == {s for (s, _d, _l) in model}
    assert cols.src_weights() == {
        s: sum(table.row_bytes(e) for (s2, _d, _l), eids in model.items()
               if s2 == s for e in eids)
        for (s, _d, _l) in model
    }
    assert cols.columnar_bytes() == sum(
        table.row_bytes(eid) for eids in model.values() for eid in eids
    )
