"""The closure's one drain: merge-join rounds over a pair's pending left
operands (DESIGN.md §12).

Each (left, row) pair is composed, merged and checked the moment it is
met, so edges are inserted in one fixed order -- which the witness cap
makes observable: only the first ``witness_cap`` encodings of a
``(src, dst, label)`` slot are kept.
"""

from __future__ import annotations


def resolve_backend(choice: str) -> str:
    # No in-tree caller: the committed benchmarks/harness records it as a
    # host fact.  Drop with the harness's ``kernel_backend`` field.
    return "merge-join"


def _join_vertex(edge) -> int:
    return edge[1]


# A module of its own rather than a GraphEngine method only because the
# committed benchmarks/harness attributes ``engine.kernel.time_s`` by
# wrapping ``repro.engine.kernel.drain``.
def drain(engine, loaded, parts, spills, dirty, frontier) -> None:
    """Merge-join drain of one pair's pending left operands.

    Each round takes the whole frontier, sorts it by join vertex (the
    left operand's destination) and walks the distinct join vertices in
    order -- one probe of the right-hand sorted source run per vertex,
    shared by every left operand joining there.  Mutates ``frontier``
    in place (the engine's insert path appends the next round's left
    operands to it) and returns when it is empty.
    """
    stats = engine.stats
    rel_tgt = engine._rel_tgt_id
    compose = engine._compose_edges
    while frontier:
        batch = sorted(frontier, key=_join_vertex)
        del frontier[:]
        stats.join_batches += 1
        at, n = 0, len(batch)
        while at < n:
            dst = batch[at][1]
            end = at + 1
            while end < n and batch[end][1] == dst:
                end += 1
            rows = None
            for index, part in parts.items():
                if part.owns(dst):
                    rows = loaded[index].out_rows(dst)
                    break
            if rows:
                stats.join_probes += 1
                rows = [row for row in rows if rel_tgt(row[1])]
            if rows:
                for k in range(at, end):
                    src, _, label1_id, enc1 = batch[k]
                    for dst2, label2_id, enc2 in rows:
                        compose(
                            src, dst, label1_id, enc1, dst2, label2_id,
                            enc2, loaded, parts, spills, dirty, frontier,
                        )
            at = end
