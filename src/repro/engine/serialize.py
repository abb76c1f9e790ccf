"""Binary on-disk formats for edge partitions.

Grapple inlines variable-sized interval sequences directly into per-edge
storage (paper §4.3) rather than keeping pointer-linked objects.  The
Python engine hash-conses every path encoding into the phase's resident
:class:`~repro.engine.columnar.EncodingTable`, so what a partition file
has to carry is the table's *ids*; the tuples themselves are written
only where no table can supply them.  Three layouts share the ``GRPL``
magic and the element wire encoding:

**Partition files** (version 3, columnar)::

    MAGIC "GRPL" | version u8 = 3
    varint n_encodings   length of the table the enc ids index
    varint n_rows
    src column:   n_rows * 8 bytes, native-endian int64
    dst column:   n_rows * 8 bytes
    label column: n_rows * 8 bytes
    enc column:   n_rows * 8 bytes (ids of the writing store's table)
    CRC-32 u32 LE of every byte before it

A load is four ``array('q').frombytes`` calls and one checksum; nothing
is decoded, remapped or re-interned.  Columns are native-endian:
partition files never move between machines.  The ids mean something
only beside the table that issued them: a scratch store's table lives
as long as its files do, and a durable workdir carries the table in its
encoding log.

**Encoding log** (``encodings.bin``, durable workdirs only): a sequence
of checksummed frames (below), each holding the encodings interned since
the previous frame, in id order::

    string table | varint count | per encoding varint n_elements + elements

**Version 1** (row-oriented, self-describing: delta frames)::

    MAGIC "GRPL" | version u8 = 1
    string table: varint count, then per string varint length + utf-8 bytes
    varint number of source vertices
    per source: varint src, varint n_targets
        per target: varint dst, varint label_id, varint n_encodings
            per encoding: varint n_elements, then elements

element wire encoding: tag u8 (0 = interval, 1 = call, 2 = return,
3 = string), then
    interval: varint func_index, varint start, varint end
    call/return: varint id
    string: varint length + utf-8 bytes

All integers are unsigned LEB128 varints.  Truncated or malformed input
raises :class:`CorruptPartition` (a ``ValueError``) rather than leaking
``IndexError`` from the byte cursor.

Durability primitives live here too: :func:`atomic_write_bytes` is the
write-temp -> fsync -> ``os.replace`` helper every partition/manifest
write goes through (a crash can only ever leave the previous complete
version, never a truncated file; a scratch store that nothing can
resume from asks it to skip the fsync), and delta files and the encoding
log are sequences of *checksummed* frames (:func:`encode_frame` /
:func:`split_frames`): a 4-byte length, a CRC-32 of the payload, then
the payload, appended in a single ``write`` call.  A crash mid-append
leaves a truncated tail frame that the reader detects and drops; a CRC
mismatch on an interior frame is real corruption and is reported
separately so the retry layer can force the affected partition's pairs
to recompute (delta files) or the resume is refused (encoding log).
"""

from __future__ import annotations

import json
import os
import zlib
from array import array
from dataclasses import dataclass

MAGIC = b"GRPL"
VERSION = 1
COLUMNAR_VERSION = 3
#: Partition-file trailer: u32 LE CRC-32 of everything before it.
TRAILER_BYTES = 4

_TAG_INTERVAL = 0
_TAG_CALL = 1
_TAG_RETURN = 2
_TAG_STRING = 3  # string-constraint baseline payloads (Table 5)


class CorruptPartition(ValueError):
    """A partition/delta payload is truncated or structurally invalid."""


def _append_varint(buf: bytearray, value: int) -> None:
    """Append ``value`` as an unsigned LEB128 varint."""
    if value < 0:
        raise ValueError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def read_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    try:
        while True:
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result, pos
            shift += 7
    except IndexError:
        raise CorruptPartition(
            f"truncated varint at byte {pos} of {len(data)}"
        ) from None


# -- durability primitives -----------------------------------------------------

#: Delta frame header: u32 LE payload length + u32 LE CRC-32 of payload.
FRAME_HEADER_BYTES = 8


def atomic_write_bytes(path: str, data: bytes, replace: bool = True,
                       durable: bool = True) -> str:
    """Atomically replace ``path`` with ``data``: write a temp file in
    the same directory, flush + fsync it, then ``os.replace`` over the
    target.  A crash at any point leaves either the old complete file or
    the new complete file -- never a truncated mix.  Returns the temp
    path (``replace=False`` skips the rename; fault injection uses it to
    simulate a crash between write and rename).

    ``durable=False`` keeps the temp + rename (a concurrent reader still
    never sees a torn file) but skips the fsync: for scratch files that
    die with the process that wrote them, surviving a power cut buys
    nothing."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(data)
        if durable:
            f.flush()
            os.fsync(f.fileno())
    if not replace:
        return tmp
    os.replace(tmp, path)
    return tmp


def parse_json_object(data) -> dict | None:
    """A JSON document that comes from outside the program (a state
    file, a manifest, a cached artifact, a socket line): the parsed
    *object*, or None for anything else -- malformed or mis-encoded
    text, a non-object top level, or nesting deep enough to exhaust the
    parser (``"[" * 200000`` raises RecursionError, not ValueError)."""
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError):
        return None
    return doc if isinstance(doc, dict) else None


def read_json_object(path: str) -> dict | None:
    """:func:`parse_json_object` of the file at ``path``; a file that
    cannot be read is no document either."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError:
        return None
    return parse_json_object(data)


def encode_frame(payload: bytes) -> bytes:
    """One checksummed delta frame: length, CRC-32, payload."""
    return (
        len(payload).to_bytes(4, "little")
        + (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "little")
        + payload
    )


def split_frames(data: bytes) -> tuple[list[bytes], int, int]:
    """Parse a delta file's frames: ``(payloads, dropped, corrupt)``.

    ``dropped`` counts truncated *trailing* frames (header or payload cut
    short -- the benign artifact of a crash mid-append; everything after
    the cut is unreadable and discarded).  ``corrupt`` counts interior
    frames whose CRC does not match their payload (real corruption: the
    frame is skipped but parsing continues at the next boundary, and the
    caller must treat the file's partition as needing recomputation).
    """
    payloads: list[bytes] = []
    dropped = 0
    corrupt = 0
    pos = 0
    n = len(data)
    while pos < n:
        if pos + FRAME_HEADER_BYTES > n:
            dropped += 1
            break
        length = int.from_bytes(data[pos : pos + 4], "little")
        crc = int.from_bytes(data[pos + 4 : pos + 8], "little")
        end = pos + FRAME_HEADER_BYTES + length
        if end > n:
            dropped += 1
            break
        payload = data[pos + FRAME_HEADER_BYTES : end]
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            corrupt += 1
        else:
            payloads.append(payload)
        pos = end
    return payloads, dropped, corrupt


# -- shared element wire encoding ---------------------------------------------


def _append_encoding(buf: bytearray, encoding: tuple, intern) -> None:
    _append_varint(buf, len(encoding))
    for elem in encoding:
        kind = elem[0]
        if kind == "I":
            buf.append(_TAG_INTERVAL)
            _append_varint(buf, intern(elem[1]))
            _append_varint(buf, elem[2])
            _append_varint(buf, elem[3])
        elif kind == "C":
            buf.append(_TAG_CALL)
            _append_varint(buf, elem[1])
        elif kind == "R":
            buf.append(_TAG_RETURN)
            _append_varint(buf, elem[1])
        elif kind == "S":
            raw = elem[1].encode("utf-8")
            buf.append(_TAG_STRING)
            _append_varint(buf, len(raw))
            buf += raw
        else:
            raise ValueError(f"unknown encoding element {elem!r}")


def _read_encoding(data: bytes, pos: int, strings: list[str]):
    n_elements, pos = read_varint(data, pos)
    elems = []
    try:
        for _ in range(n_elements):
            tag = data[pos]
            pos += 1
            if tag == _TAG_INTERVAL:
                func_index, pos = read_varint(data, pos)
                start, pos = read_varint(data, pos)
                end, pos = read_varint(data, pos)
                elems.append(("I", strings[func_index], start, end))
            elif tag == _TAG_CALL:
                cid, pos = read_varint(data, pos)
                elems.append(("C", cid))
            elif tag == _TAG_RETURN:
                rid, pos = read_varint(data, pos)
                elems.append(("R", rid))
            elif tag == _TAG_STRING:
                length, pos = read_varint(data, pos)
                end = pos + length
                if end > len(data):
                    raise CorruptPartition("truncated string element")
                elems.append(("S", data[pos:end].decode("utf-8")))
                pos = end
            else:
                raise CorruptPartition(f"unknown element tag {tag}")
    except IndexError:
        raise CorruptPartition(
            f"truncated encoding element at byte {pos}"
        ) from None
    return tuple(elems), pos


def _read_string_table(data: bytes, pos: int) -> tuple[list[str], int]:
    n_strings, pos = read_varint(data, pos)
    strings: list[str] = []
    for _ in range(n_strings):
        length, pos = read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise CorruptPartition("truncated string table")
        strings.append(data[pos:end].decode("utf-8"))
        pos = end
    return strings, pos


def _interner(strings: dict[str, int]):
    """``name -> index`` into ``strings``, growing it (insertion order is
    index order, which is how :func:`_append_string_table` writes it)."""

    def intern(name: str) -> int:
        index = strings.get(name)
        if index is None:
            index = len(strings)
            strings[name] = index
        return index

    return intern


def _append_string_table(buf: bytearray, strings: dict[str, int]) -> None:
    _append_varint(buf, len(strings))
    for name in strings:  # insertion order == index order
        raw = name.encode("utf-8")
        _append_varint(buf, len(raw))
        buf += raw


# -- version 1: row-oriented dicts --------------------------------------------


def encode_partition(edges: dict) -> bytes:
    """Serialise ``{src: {(dst, label_id): set[encoding]}}`` to v1 bytes."""
    strings: dict[str, int] = {}
    intern = _interner(strings)
    body = bytearray()
    _append_varint(body, len(edges))
    for src in sorted(edges):
        targets = edges[src]
        _append_varint(body, src)
        _append_varint(body, len(targets))
        for (dst, label_id) in sorted(targets):
            encodings = targets[(dst, label_id)]
            _append_varint(body, dst)
            _append_varint(body, label_id)
            _append_varint(body, len(encodings))
            for encoding in sorted(encodings):
                _append_encoding(body, encoding, intern)

    out = bytearray()
    out += MAGIC
    out.append(VERSION)
    _append_string_table(out, strings)
    out += body
    return bytes(out)


def decode_partition(data: bytes) -> dict:
    """Decode v1 bytes back to ``{src: {(dst, label_id): set}}``."""
    if data[:4] != MAGIC:
        raise CorruptPartition("bad partition file magic")
    if data[4] != VERSION:
        raise CorruptPartition(f"unsupported partition version {data[4]}")
    pos = 5
    strings, pos = _read_string_table(data, pos)

    edges: dict = {}
    n_sources, pos = read_varint(data, pos)
    for _ in range(n_sources):
        src, pos = read_varint(data, pos)
        n_targets, pos = read_varint(data, pos)
        targets: dict = {}
        for _ in range(n_targets):
            dst, pos = read_varint(data, pos)
            label_id, pos = read_varint(data, pos)
            n_encodings, pos = read_varint(data, pos)
            encodings = set()
            for _ in range(n_encodings):
                encoding, pos = _read_encoding(data, pos, strings)
                encodings.add(encoding)
            targets[(dst, label_id)] = encodings
        edges[src] = targets
    return edges


# -- the encoding log ----------------------------------------------------------


def encode_encodings(encodings: list) -> bytes:
    """One encoding-log frame's payload: ``encodings`` in id order."""
    strings: dict[str, int] = {}
    intern = _interner(strings)
    body = bytearray()
    _append_varint(body, len(encodings))
    for encoding in encodings:
        _append_encoding(body, encoding, intern)
    out = bytearray()
    _append_string_table(out, strings)
    out += body
    return bytes(out)


def decode_encodings(payload: bytes) -> list:
    """The encoding tuples of one log frame's payload, in id order."""
    strings, pos = _read_string_table(payload, 0)
    count, pos = read_varint(payload, pos)
    encodings = []
    for _ in range(count):
        encoding, pos = _read_encoding(payload, pos, strings)
        encodings.append(encoding)
    return encodings


# -- version 3: columnar partition files ----------------------------------------


@dataclass
class ColumnarFile:
    """Parsed partition file: the four edge columns as written, plus the
    length of the encoding table the ``enc`` ids were issued by.

    Parsing is pure (no shared interning state), so it is safe to run on
    the prefetch thread; the consumer checks the ids against its own
    :class:`~repro.engine.columnar.EncodingTable` when it adopts the
    columns (``EdgeColumns.from_file``).
    """

    n_encodings: int
    src: array
    dst: array
    label: array
    enc: array  # ids of the writing store's encoding table


def encode_columnar(
    src: array, dst: array, label: array, enc: array, n_encodings: int,
) -> bytes:
    """Serialise sorted edge columns to partition-file bytes; ``enc``
    holds ids of a table that is ``n_encodings`` long."""
    out = bytearray(MAGIC)
    out.append(COLUMNAR_VERSION)
    _append_varint(out, n_encodings)
    _append_varint(out, len(src))
    out += src.tobytes()
    out += dst.tobytes()
    out += label.tobytes()
    out += enc.tobytes()
    out += zlib.crc32(out).to_bytes(TRAILER_BYTES, "little")
    return bytes(out)


def check_encoding_ids(enc: array, n_encodings: int) -> None:
    """Refuse an ``enc`` column holding an id outside a table that is
    ``n_encodings`` long (two C-speed scans, no per-row loop)."""
    if enc:
        for eid in (min(enc), max(enc)):
            if not 0 <= eid < n_encodings:
                raise CorruptPartition(f"encoding id {eid} out of range")


def parse_columnar(data: bytes) -> ColumnarFile:
    """Parse partition-file bytes into a :class:`ColumnarFile` (pure,
    bulk)."""
    if data[:4] != MAGIC:
        raise CorruptPartition("bad partition file magic")
    version = data[4] if len(data) > 4 else None
    if version != COLUMNAR_VERSION:
        raise CorruptPartition(f"unsupported partition version {version}")
    view = memoryview(data)
    pos = 5
    n_encodings, pos = read_varint(data, pos)
    n_rows, pos = read_varint(data, pos)
    width = n_rows * 8
    end = pos + 4 * width
    if end + TRAILER_BYTES != len(data):
        raise CorruptPartition(
            f"partition file is {len(data)} bytes, its header describes"
            f" {end + TRAILER_BYTES}"
        )
    if zlib.crc32(view[:end]) != int.from_bytes(view[end:], "little"):
        raise CorruptPartition("partition file checksum mismatch")
    columns = []
    for _ in range(4):
        col = array("q")
        col.frombytes(view[pos : pos + width])
        columns.append(col)
        pos += width
    src, dst, label, enc = columns
    check_encoding_ids(enc, n_encodings)
    return ColumnarFile(
        n_encodings=n_encodings, src=src, dst=dst, label=label, enc=enc
    )
