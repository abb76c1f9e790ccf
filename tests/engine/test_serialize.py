"""Unit and property tests for the binary partition format."""

from hypothesis import given, settings, strategies as st

from repro.engine import serialize


def roundtrip(edges):
    return serialize.decode_partition(serialize.encode_partition(edges))


def test_empty_partition():
    assert roundtrip({}) == {}


def test_single_edge():
    edges = {1: {(2, 0): {(("I", "main", 0, 3),)}}}
    assert roundtrip(edges) == edges


def test_multiple_encodings_per_edge():
    edges = {
        5: {
            (7, 2): {
                (("I", "f", 0, 1),),
                (("I", "f", 0, 2),),
                (("C", 12), ("I", "g", 0, 0)),
            }
        }
    }
    assert roundtrip(edges) == edges


def test_call_return_elements():
    edges = {0: {(1, 0): {(("C", 3), ("I", "callee", 0, 4), ("R", 4))}}}
    assert roundtrip(edges) == edges


def test_string_elements():
    edges = {0: {(1, 0): {(("S", "(and (true) (var int foo::x))"),)}}}
    assert roundtrip(edges) == edges


def test_shared_function_names_interned_once():
    edges = {
        i: {(i + 1, 0): {(("I", "sharedfunc", 0, i),)}} for i in range(50)
    }
    data = serialize.encode_partition(edges)
    assert data.count(b"sharedfunc") == 1
    assert roundtrip(edges) == edges


def test_varint_roundtrip_large_values():
    for value in (0, 1, 127, 128, 300, 2**20, 2**40):
        out = bytearray()
        serialize._append_varint(out, value)
        decoded, pos = serialize.read_varint(bytes(out), 0)
        assert decoded == value
        assert pos == len(out)


def test_bad_magic_rejected():
    import pytest

    with pytest.raises(ValueError):
        serialize.decode_partition(b"XXXX\x01")


def test_truncated_varint_raises_corrupt_partition():
    import pytest

    # A continuation bit with no following byte used to leak IndexError.
    with pytest.raises(serialize.CorruptPartition):
        serialize.read_varint(b"\x80", 0)
    with pytest.raises(serialize.CorruptPartition):
        serialize.read_varint(b"", 0)


def test_truncated_payload_raises_corrupt_partition():
    import pytest

    edges = {1: {(2, 0): {(("I", "main", 0, 3), ("S", "payload")),}}}
    data = serialize.encode_partition(edges)
    # Every proper prefix (past the header check) must fail cleanly, never
    # with a bare IndexError.
    for cut in range(5, len(data)):
        try:
            decoded = serialize.decode_partition(data[:cut])
        except serialize.CorruptPartition:
            continue
        # A prefix that happens to parse must at least be a valid dict.
        assert isinstance(decoded, dict)


def test_truncated_columnar_raises_corrupt_partition():
    from array import array

    import pytest

    data = serialize.encode_columnar(
        array("q", [1, 2]), array("q", [3, 4]), array("q", [0, 1]),
        array("q", [0, 0]), 1,
    )
    assert serialize.parse_columnar(data).n_encodings == 1
    # Every cut point of the layout: magic, version, the two varints,
    # each column, and inside the CRC trailer.
    for cut in range(len(data)):
        with pytest.raises(serialize.CorruptPartition):
            serialize.parse_columnar(data[:cut])
    with pytest.raises(serialize.CorruptPartition):
        serialize.parse_columnar(data + b"\x00")


def test_columnar_checksum_covers_every_byte():
    """A flipped bit in a column used to be adopted as a valid, wrong
    edge; the trailer refuses it wherever it lands."""
    from array import array

    import pytest

    data = serialize.encode_columnar(
        array("q", [1, 2]), array("q", [3, 4]), array("q", [0, 1]),
        array("q", [0, 1]), 2,
    )
    for at in range(5, len(data)):
        damaged = bytearray(data)
        damaged[at] ^= 0x01
        with pytest.raises(serialize.CorruptPartition):
            serialize.parse_columnar(bytes(damaged))


def test_other_partition_versions_are_refused():
    """One layout per codec: a v2 (tuple-table) or v1 partition file is
    not a partition file any more, and a v3 file is not a delta frame."""
    from array import array

    import pytest

    v1 = serialize.encode_partition({1: {(2, 0): {(("I", "f", 0, 1),)}}})
    v2 = serialize.MAGIC + b"\x02" + v1[5:]
    v3 = serialize.encode_columnar(
        array("q", [1]), array("q", [2]), array("q", [0]), array("q", [0]), 1
    )
    for payload, version in ((v1, 1), (v2, 2)):
        with pytest.raises(
            serialize.CorruptPartition,
            match=f"unsupported partition version {version}",
        ):
            serialize.parse_columnar(payload)
    with pytest.raises(
        serialize.CorruptPartition, match="unsupported partition version 3"
    ):
        serialize.decode_partition(v3)


def test_columnar_rejects_out_of_range_encoding_id():
    from array import array

    import pytest

    from repro.engine.columnar import EdgeColumns, EncodingTable

    n_encodings = 2
    rows = 5

    def encode(enc_ids, declared=n_encodings):
        return serialize.encode_columnar(
            array("q", range(rows)), array("q", range(1, rows + 1)),
            array("q", [0] * rows), array("q", enc_ids), declared,
        )

    def parse(enc_ids):
        return serialize.parse_columnar(encode(enc_ids))

    assert list(parse([0, 1, 0, 1, 1]).enc) == [0, 1, 0, 1, 1]
    # The check is over the whole column: first, middle and last row.
    for row in (0, rows // 2, rows - 1):
        for bad in (-1, n_encodings, 7):
            enc_ids = [0, 1, 0, 1, 1]
            enc_ids[row] = bad
            with pytest.raises(
                serialize.CorruptPartition,
                match=f"encoding id {bad} out of range",
            ):
                parse(enc_ids)
    # An empty column has no id to be out of range.
    empty = serialize.parse_columnar(serialize.encode_columnar(
        array("q"), array("q"), array("q"), array("q"), 0,
    ))
    assert len(empty.enc) == 0
    # A self-consistent file still has to fit the table that adopts it:
    # ``max(enc) == len(table)`` is one id too many.
    table = EncodingTable()
    table.intern((("I", "f", 0, 1),))
    table.intern((("I", "f", 0, 2),))
    for row in (0, rows // 2, rows - 1):
        enc_ids = [0, 1, 0, 1, 1]
        enc_ids[row] = len(table)
        parsed = serialize.parse_columnar(encode(enc_ids, len(table) + 1))
        with pytest.raises(
            serialize.CorruptPartition,
            match=f"encoding id {len(table)} out of range",
        ):
            EdgeColumns.from_file(parsed, table)


# -- property-based ---------------------------------------------------------

_funcs = st.sampled_from(["alpha", "beta", "gamma"])

_elements = st.one_of(
    st.tuples(st.just("I"), _funcs, st.integers(0, 500), st.integers(0, 500)),
    st.tuples(st.just("C"), st.integers(0, 10_000)),
    st.tuples(st.just("R"), st.integers(0, 10_000)),
    st.tuples(st.just("S"), st.text(max_size=40)),
)

_encodings = st.lists(_elements, min_size=1, max_size=6).map(tuple)

_partitions = st.dictionaries(
    st.integers(0, 200),
    st.dictionaries(
        st.tuples(st.integers(0, 200), st.integers(0, 10)),
        st.sets(_encodings, min_size=1, max_size=3),
        min_size=1,
        max_size=4,
    ),
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(_partitions)
def test_roundtrip_is_identity(edges):
    assert roundtrip(edges) == edges


def _columnar_roundtrip(edges):
    """``edges`` through a partition file and back, over one table:
    the same four columns (the ids as they were), hence the same rows
    and the same accounted bytes."""
    from repro.engine.columnar import EdgeColumns, EncodingTable

    table = EncodingTable()
    table.intern((("I", "warm", 0, 0),))  # ids need not start at the file's
    cols = EdgeColumns.from_dict(edges, table)
    size = len(table)
    parsed = serialize.parse_columnar(cols.encode())
    assert parsed.n_encodings == size == len(table)  # nothing re-interned
    assert (parsed.src, parsed.dst, parsed.label, parsed.enc) == (
        cols.src, cols.dst, cols.label, cols.enc
    )
    back = EdgeColumns.from_file(parsed, table)
    assert back.to_dict() == edges
    assert back.columnar_bytes() == cols.columnar_bytes()


@settings(max_examples=80, deadline=None)
@given(_partitions)
def test_columnar_roundtrip_is_identity(edges):
    _columnar_roundtrip(edges)


@settings(max_examples=80, deadline=None)
@given(st.lists(_encodings, max_size=12, unique=True))
def test_encoding_log_payload_roundtrips(encodings):
    payload = serialize.encode_encodings(encodings)
    assert serialize.decode_encodings(payload) == encodings
    for cut in range(len(payload)):
        try:
            short = serialize.decode_encodings(payload[:cut])
        except ValueError:
            continue
        assert short != encodings
