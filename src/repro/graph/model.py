"""Core program-graph model shared by both analyses.

Vertices and labels are interned to dense integer ids so the engine's
partitions and on-disk format can be compact.  An edge is the 4-tuple
``(src, dst, label_id, encoding)`` where ``encoding`` is an interval
sequence from :mod:`repro.cfet.encoding`.

Vertex key shapes (tuples, first element is the kind):

* ``("var", ctx, func, var, node_id)`` -- a variable occurrence in one
  basic block of one clone (``ctx`` is the tuple of call-record cids from
  the root context -- the clone identity);
* ``("obj", site, ctx, func, node_id)`` -- an allocation-site instance;
* ``("pt", ctx, func, node_id, seg)`` -- a dataflow program point
  (segment ``seg`` of a CFET node);
* ``("exit", func)`` -- the synthetic program-exit vertex.

Label shapes: ``("new",)``, ``("assign",)``, ``("store", f)``,
``("load", f)``, ``("flowsTo",)``, ``("storeBar", f)``, ``("fs", f)``,
``("fsBar", f)``, ``("sa", f)``, ``("heap",)``, ``("cf",)``,
``("st", fsm, state)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Process-wide catalog of label tuples (see :func:`canonical_label`).
_CANONICAL_LABELS: dict = {}


def canonical_label(label: tuple) -> tuple:
    """The canonical instance of a structurally-equal label tuple.

    Grammars build the same few label tuples over and over (every
    ``("st", fsm, state)`` of every composition, every ``("sa", f)``);
    hash-consing them means equal labels are the *same object*, so the
    engine's per-composition label comparisons and dict probes hit
    CPython's pointer-equality fast path instead of re-hashing tuple
    contents, and repeated construction allocates nothing.
    :meth:`LabelTable.intern` routes through this catalog, so a label id
    always looks up to the canonical instance.
    """
    return _CANONICAL_LABELS.setdefault(label, label)


class _InternTable:
    """Bidirectional interning of hashable keys to dense ints."""

    def __init__(self) -> None:
        self._by_key: dict = {}
        self._by_id: list = []

    def intern(self, key) -> int:
        """The dense id of ``key``, allocating one on first sight."""
        ident = self._by_key.get(key)
        if ident is None:
            ident = len(self._by_id)
            self._by_key[key] = ident
            self._by_id.append(key)
        return ident

    def lookup(self, ident: int):
        """The key interned under ``ident``."""
        return self._by_id[ident]

    def get(self, key):
        """The id of ``key`` if already interned, else None."""
        return self._by_key.get(key)

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, key) -> bool:
        return key in self._by_key

    def items(self):
        """Iterate ``(id, key)`` pairs in id order."""
        return enumerate(self._by_id)


class VertexTable(_InternTable):
    """Interns vertex keys."""


class LabelTable(_InternTable):
    """Interns edge-label tuples (canonicalised, so ``lookup`` always
    returns the one shared instance of each label)."""

    def intern(self, key) -> int:
        return super().intern(canonical_label(key))


@dataclass
class ProgramGraph:
    """An in-memory program graph: the engine's input.

    ``edges`` maps ``src -> {(dst, label_id) -> set[encoding]}``; several
    encodings per (src, dst, label) are allowed -- they are distinct
    witness paths.  ``meta`` carries static per-base-edge data (the
    dataflow graph's event lists) keyed by ``(src, dst, label_id)``.
    """

    vertices: VertexTable = field(default_factory=VertexTable)
    labels: LabelTable = field(default_factory=LabelTable)
    edges: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def add_edge(self, src: int, dst: int, label, encoding,
                 meta=None) -> bool:
        """Insert one edge; returns False if it was already present."""
        label_id = self.labels.intern(label)
        slot = self.edges.setdefault(src, {}).setdefault((dst, label_id), set())
        if encoding in slot:
            return False
        slot.add(encoding)
        if meta is not None:
            self.meta[(src, dst, label_id)] = meta
        return True

    def edge_count(self) -> int:
        """Total edges counting each witness encoding separately."""
        return sum(
            len(encs)
            for targets in self.edges.values()
            for encs in targets.values()
        )

    def distinct_edge_count(self) -> int:
        """Edges ignoring encoding multiplicity (paper-style edge counts)."""
        return sum(len(targets) for targets in self.edges.values())

    def iter_edges(self):
        """Yield ``(src, dst, label_id, encoding)`` tuples."""
        for src, targets in self.edges.items():
            for (dst, label_id), encodings in targets.items():
                for enc in encodings:
                    yield src, dst, label_id, enc
