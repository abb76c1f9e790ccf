"""Columnar in-memory edge store with hash-consed encodings.

The engine used to hold a loaded partition as nested dicts of tuples:
``{src: {(dst, label_id): set[encoding]}}``.  Every partition load
rebuilt millions of small tuples and sets, every compose probe hashed
full interval-sequence tuples, and every spill re-serialised them edge
by edge.  Grapple's C++ engine instead stores edges as flat arrays with
inlined constraint payloads (paper §4.3); this module is the Python
analogue:

* :class:`EncodingTable` hash-conses path encodings (interval-sequence
  tuples) into dense integer ids, so the closure kernel compares and
  hashes machine ints instead of variable-length tuples.  Ids are local
  to one table and reach partition files as they are; a durable
  workdir carries the table that defines them (its encoding log).
* :class:`EdgeColumns` keeps a partition as four parallel ``array('q')``
  columns -- ``src``/``dst``/``label``/``enc`` -- sorted by source, plus
  a small dict overlay for edges inserted since the last compaction.
  Source runs are found by bisect on the sorted ``src`` column (the
  CSR-style index is implicit in the sort order), membership probes go
  through a lazy per-source cache, and serialisation is a bulk
  ``tobytes`` of the four columns (``serialize.encode_columnar``) and a
  load adopts them back unchanged, then folds the partition's pending
  rows in by id through :meth:`EdgeColumns.insert`.

Byte accounting is columnar: 32 bytes per row (four int64 slots plus
set/dict overhead amortised) plus the raw text of any string-constraint
payloads, which dominate row size under the Table-5 string baseline
(``repro.baselines.string_constraints``).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right

from repro.engine import serialize

ROW_BYTES = 32


class EncodingTable:
    """Hash-consing of encoding tuples to dense int ids."""

    __slots__ = ("_ids", "_tuples", "_extras", "_extra_total")

    def __init__(self) -> None:
        self._ids: dict[tuple, int] = {}
        self._tuples: list[tuple] = []
        self._extras: list[int] = []  # string payload bytes per encoding
        self._extra_total = 0

    def __len__(self) -> int:
        return len(self._tuples)

    def intern(self, encoding: tuple) -> int:
        eid = self._ids.get(encoding)
        if eid is None:
            eid = len(self._tuples)
            self._ids[encoding] = eid
            self._tuples.append(encoding)
            extra = 0
            for elem in encoding:
                if elem[0] == "S":
                    extra += 64 + len(elem[1])
            self._extras.append(extra)
            self._extra_total += extra
        return eid

    def decode(self, eid: int) -> tuple:
        return self._tuples[eid]

    def since(self, start: int) -> list[tuple]:
        """The encodings with ids ``start`` and up, in id order."""
        return self._tuples[start:]

    def row_bytes(self, eid: int) -> int:
        return ROW_BYTES + self._extras[eid]

    def has_extras(self) -> bool:
        """True when any interned encoding carries string payload bytes."""
        return self._extra_total > 0


class EdgeColumns:
    """One partition's edges: sorted base columns + an insert overlay.

    The base columns are immutable between :meth:`compact` calls and
    sorted by ``(src, dst, label)`` (the encoding order within a group
    is unspecified).  Inserts land in ``extra``, a
    ``{src: {(dst, label): set[enc_id]}}`` dict that mirrors the old
    representation but holds interned ids; :meth:`compact` merges it
    into the base.  All encodings are ids into the shared ``table``.
    """

    __slots__ = (
        "table", "src", "dst", "label", "enc",
        "extra", "_extra_rows", "_probe", "_bytes",
    )

    def __init__(self, table: EncodingTable) -> None:
        self.table = table
        self.src = array("q")
        self.dst = array("q")
        self.label = array("q")
        self.enc = array("q")
        self.extra: dict[int, dict[tuple, set[int]]] = {}
        self._extra_rows = 0
        self._probe: dict[int, dict[tuple, set[int]]] = {}
        self._bytes = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dict(cls, edges: dict, table: EncodingTable) -> "EdgeColumns":
        """Build from the tuple-keyed dict shape (sorted, deterministic)."""
        cols = cls(table)
        src, dst, label, enc = cols.src, cols.dst, cols.label, cols.enc
        intern = table.intern
        total = 0
        for s in sorted(edges):
            targets = edges[s]
            for (d, l) in sorted(targets):
                for encoding in sorted(targets[(d, l)]):
                    eid = intern(encoding)
                    src.append(s)
                    dst.append(d)
                    label.append(l)
                    enc.append(eid)
                    total += table.row_bytes(eid)
        cols._bytes = total
        return cols

    @classmethod
    def from_file(
        cls, parsed: serialize.ColumnarFile, table: EncodingTable
    ) -> "EdgeColumns":
        """Adopt a parsed partition file's four columns as they are
        (src-sorted on disk; ``enc`` holds ids of ``table``, the table
        that wrote them or its replay from the encoding log).  An id the
        table never issued means the file belongs to some other table."""
        serialize.check_encoding_ids(parsed.enc, len(table))
        cols = cls(table)
        cols.src = parsed.src
        cols.dst = parsed.dst
        cols.label = parsed.label
        cols.enc = parsed.enc
        cols._bytes = cols._base_bytes()
        return cols

    def _base_bytes(self) -> int:
        """Accounted bytes of the base columns' rows."""
        table = self.table
        if table.has_extras():
            return sum(map(table.row_bytes, self.enc))
        return ROW_BYTES * len(self.enc)

    # -- probes and mutation --------------------------------------------------

    def _src_run(self, s: int) -> tuple[int, int]:
        lo = bisect_left(self.src, s)
        hi = bisect_right(self.src, s, lo)
        return lo, hi

    def _probe_src(self, s: int) -> dict:
        probe = self._probe.get(s)
        if probe is None:
            lo, hi = self._src_run(s)
            probe = {}
            dst, label, enc = self.dst, self.label, self.enc
            for i in range(lo, hi):
                key = (dst[i], label[i])
                slot = probe.get(key)
                if slot is None:
                    slot = probe[key] = set()
                slot.add(enc[i])
            self._probe[s] = probe
        return probe

    def admit(self, s: int, d: int, l: int, eid: int, cap: int):
        """One probe of the ``(s, d, l)`` slot: the overlay set to
        :meth:`add` ``eid`` to, or None when the edge is already present
        or the slot already holds ``cap`` encodings.  A slot the overlay
        does not hold yet comes back as a new empty set, attached only
        by :meth:`add`, so a rejected edge leaves nothing behind."""
        key = (d, l)
        base = self._probe_src(s).get(key)
        if base is None:
            count = 0
        elif eid in base:
            return None
        else:
            count = len(base)
        targets = self.extra.get(s)
        slot = None if targets is None else targets.get(key)
        if slot is None:
            return set() if count < cap else None
        if eid in slot or count + len(slot) >= cap:
            return None
        return slot

    def add(self, s: int, d: int, l: int, slot: set, eid: int) -> None:
        """Add ``eid`` to the slot :meth:`admit` returned for it."""
        if not slot:
            targets = self.extra.get(s)
            if targets is None:
                targets = self.extra[s] = {}
            targets[(d, l)] = slot
        slot.add(eid)
        self._extra_rows += 1
        self._bytes += self.table.row_bytes(eid)

    def insert(self, s: int, d: int, l: int, eid: int) -> bool:
        """Add one edge, uncapped; returns False when it is already
        present."""
        slot = self.admit(s, d, l, eid, sys.maxsize)
        if slot is None:
            return False
        self.add(s, d, l, slot, eid)
        return True

    def out_rows(self, s: int) -> list:
        """All ``(dst, label, enc_id)`` rows with source ``s`` (a fresh
        list -- callers may treat it as a snapshot)."""
        lo, hi = self._src_run(s)
        rows = list(zip(self.dst[lo:hi], self.label[lo:hi], self.enc[lo:hi]))
        targets = self.extra.get(s)
        if targets is not None:
            append = rows.append
            for (d, l), eids in targets.items():
                for eid in eids:
                    append((d, l, eid))
        return rows

    # -- whole-store views ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.src) + self._extra_rows

    def columnar_bytes(self) -> int:
        return self._bytes

    def iter_rows(self):
        """Yield every ``(src, dst, label, enc_id)`` row (base + overlay)."""
        yield from zip(self.src, self.dst, self.label, self.enc)
        for s, targets in self.extra.items():
            for (d, l), eids in targets.items():
                for eid in eids:
                    yield s, d, l, eid

    def iter_sources(self):
        """Distinct source vertices present (unordered)."""
        seen = set(self.extra)
        src = self.src
        i, n = 0, len(src)
        while i < n:
            s = src[i]
            seen.add(s)
            i = bisect_right(src, s, i)
        return seen

    def to_dict(self) -> dict:
        """Back to the tuple-keyed dict shape."""
        decode = self.table.decode
        edges: dict = {}
        for s, d, l, eid in zip(self.src, self.dst, self.label, self.enc):
            targets = edges.get(s)
            if targets is None:
                targets = edges[s] = {}
            key = (d, l)
            slot = targets.get(key)
            if slot is None:
                slot = targets[key] = set()
            slot.add(decode(eid))
        for s, targets in self.extra.items():
            mine = edges.setdefault(s, {})
            for key, eids in targets.items():
                slot = mine.setdefault(key, set())
                for eid in eids:
                    slot.add(decode(eid))
        return edges

    # -- compaction / splitting / serialisation -------------------------------

    def compact(self) -> None:
        """Merge the overlay into the sorted base columns."""
        if not self._extra_rows:
            return
        over = []
        for s, targets in self.extra.items():
            for (d, l), eids in targets.items():
                for eid in eids:
                    over.append((s, d, l, eid))
        over.sort()
        src, dst, label, enc = self.src, self.dst, self.label, self.enc
        nsrc = array("q")
        ndst = array("q")
        nlabel = array("q")
        nenc = array("q")
        i, n = 0, len(src)
        for row in over:
            s, d, l, eid = row
            while i < n and (src[i], dst[i], label[i], enc[i]) <= row:
                nsrc.append(src[i])
                ndst.append(dst[i])
                nlabel.append(label[i])
                nenc.append(enc[i])
                i += 1
            nsrc.append(s)
            ndst.append(d)
            nlabel.append(l)
            nenc.append(eid)
        nsrc.extend(src[i:])
        ndst.extend(dst[i:])
        nlabel.extend(label[i:])
        nenc.extend(enc[i:])
        self.src, self.dst, self.label, self.enc = nsrc, ndst, nlabel, nenc
        self.extra = {}
        self._extra_rows = 0
        self._probe = {}

    def split_at(self, mid: int) -> tuple["EdgeColumns", "EdgeColumns"]:
        """Split into (sources < mid, sources >= mid) after compacting."""
        self.compact()
        cut = bisect_left(self.src, mid)
        left = EdgeColumns(self.table)
        right = EdgeColumns(self.table)
        left.src, right.src = self.src[:cut], self.src[cut:]
        left.dst, right.dst = self.dst[:cut], self.dst[cut:]
        left.label, right.label = self.label[:cut], self.label[cut:]
        left.enc, right.enc = self.enc[:cut], self.enc[cut:]
        left._bytes = left._base_bytes()
        right._bytes = self._bytes - left._bytes
        return left, right

    def src_weights(self) -> dict[int, int]:
        """Per-source byte weights (for choosing a split boundary)."""
        weights: dict[int, int] = {}
        row_bytes = self.table.row_bytes
        for s, eid in zip(self.src, self.enc):
            weights[s] = weights.get(s, 0) + row_bytes(eid)
        for s, targets in self.extra.items():
            w = weights.get(s, 0)
            for eids in targets.values():
                for eid in eids:
                    w += row_bytes(eid)
            weights[s] = w
        return weights

    def encode(self) -> bytes:
        """Compact and serialise to partition-file bytes: the four
        columns as they are, ``enc`` still ids of ``self.table``."""
        self.compact()
        return serialize.encode_columnar(
            self.src, self.dst, self.label, self.enc, len(self.table)
        )
