"""Eligible-pair scheduling and revisit bookkeeping for the closure engine.

A partition pair ``(i, j)`` (with ``i <= j``) is *eligible* when it has
never been processed, or when either partition's version advanced since
the pair was last processed.  The serial engine used to rediscover the
next eligible pair with an O(P^2) scan per step; :class:`PairScheduler`
keeps a min-heap of candidate pairs instead, refreshed by an O(P) sweep
over partition versions, and pops the lexicographically smallest eligible
pair -- exactly the pair the old scan would have returned, so the
processing order (and therefore the output) is unchanged.

:class:`PairScheduler` says *which* pair to visit; :class:`DeltaLog` says
what a visit has to look at, cell by cell: the edges that arrived since
the cell was last closed (or everything, when that cannot be trusted),
or nothing at all -- and a pair none of whose cells has anything to look
at is retired unloaded.  The engine's loop drives one instance of each
per closure phase.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right


class DeltaLog:
    """Semi-naive bookkeeping for pair revisits (one object per closure
    phase).

    A visit of the pair ``(i, j)`` closes its four *cells*: cell
    ``(p, q)`` holds the compositions whose left operand partition ``p``
    holds and whose join vertex partition ``q`` owns.  Three things live
    here, all in memory only (dropped at phase end, never checkpointed
    -- after ``--resume`` every cursor is gone, so every cell's first
    plan seeds fully):

    * a per-partition **arrival log**: every edge added to the partition
      since the log was last reset, in arrival order, as four parallel
      ``array('q')`` columns ``(src, dst, label_id, enc_id)`` -- ids of
      the store's own encoding table, so nothing is decoded;
    * **cursors** ``(epoch_i, len_i, epoch_j, len_j)`` recorded when a
      visit ends, one per cell: the cross cells ``(i, j)`` and
      ``(j, i)`` share the pair's, and an intra cell ``(p, p)`` keeps
      one under the self-pair key, shared by every pair containing
      ``p`` -- so a composition inside a partition is not redone on the
      first visit of each pair that contains it.  A split calls
      :meth:`split`, which hands each half its share of the log and of
      every cursor, so a cell closed before the split stays closed.
      :meth:`reset` forgets a partition's log and bumps its *epoch*; a
      cursor from another epoch means the cell seeds fully.  A log that
      outgrows ``cap_rows`` (its partition's own byte cap) resets, so
      the log never holds more than the partitions it describes;
    * a per-partition **join index**: the destinations of its
      relevant-source edges.  A cell can only produce edges if some
      relevant-source edge of ``p`` points into ``q``, and a right
      operand only matters if such an edge points at its source.  The
      sets over-approximate (entries are only ever added, except on a
      reset that rebuilds one from the partition's actual columns),
      which can only keep a cell alive, never retire one wrongly.

    :meth:`plan` is the one reader of the cursors.
    """

    def __init__(self, relevant_source, relevant_target,
                 cap_rows: int | None = None):
        self._relevant = relevant_source  # label id -> bool
        self._target = relevant_target  # label id -> bool
        self._cap = cap_rows
        self._rows: dict = {}  # index -> (src, dst, label, enc) arrays
        self._epoch: dict = {}
        self._cursor: dict = {}
        self._dsts: dict = {}
        self._sorted: dict = {}  # index -> sorted snapshot (None = stale)

    def note_target(self, index: int, dst: int, label_id: int) -> None:
        """Join-index half of :meth:`record` (edges that predate the log)."""
        if self._relevant(label_id):
            dsts = self._dsts.get(index)
            if dsts is None:
                dsts = self._dsts[index] = set()
            if dst not in dsts:
                dsts.add(dst)
                self._sorted[index] = None

    def record(self, index: int, src: int, dst: int, label_id: int,
               eid: int) -> None:
        """One edge arrived in partition ``index``."""
        cols = self._rows.get(index)
        if cols is not None and self._cap is not None \
                and len(cols[0]) >= self._cap:
            self.reset(index)
            cols = None
        if cols is None:
            cols = self._rows[index] = tuple(array("q") for _ in range(4))
        cols[0].append(src)
        cols[1].append(dst)
        cols[2].append(label_id)
        cols[3].append(eid)
        self.note_target(index, dst, label_id)

    def reset(self, index: int, cols=None) -> None:
        """Forget ``index``'s log and invalidate every cursor into it;
        with ``cols`` (the partition's actual contents) also rebuild its
        destination set."""
        self._epoch[index] = self._epoch.get(index, 0) + 1
        self._rows.pop(index, None)
        if cols is not None:
            self._rebuild_targets(index, cols)

    def split(self, index: int, new_index: int, mid: int, left_cols,
              right_cols) -> None:
        """Partition ``index`` kept the sources below ``mid`` and handed
        the rest to the new partition ``new_index``.

        Its log splits by source, in arrival order, and every cursor
        into it is carried to both halves: a position maps to the number
        of the half's rows logged before it.  The carried cursors go to
        every cell either half inherits -- ``index``'s own, the new
        intra cell, the ``(index, new_index)`` cross cells (halves of
        the old intra cell) and each ``(other, new_index)`` pair (half
        of ``(other, index)``) -- so a cell closed before the split is
        still closed after it.  A cursor from another epoch carries
        nothing: the cells it would have reached seed fully.  Both
        destination sets are rebuilt from the halves' columns."""
        cols = self._rows.pop(index, None)
        left_at = array("q", [0])  # log position -> left rows before it
        if cols is not None:
            halves = tuple(
                tuple(array("q") for _ in range(4)) for _ in range(2)
            )
            left = halves[0][0]
            for row in zip(*cols):
                for col, value in zip(halves[row[0] >= mid], row):
                    col.append(value)
                left_at.append(len(left))
            self._rows[index], self._rows[new_index] = halves
        epoch = self._epoch.get(index, 0)
        new_epoch = self._epoch.get(new_index, 0)
        cursors = self._cursor
        for key, cursor in list(cursors.items()):
            if index not in key:
                continue
            slot = 0 if key[0] == index else 2
            if cursor[slot] != epoch:
                continue
            at = cursor[slot + 1]
            lpos, rpos = left_at[at], at - left_at[at]
            if key == (index, index):
                cursors[key] = (epoch, lpos, epoch, lpos)
                cursors[(new_index, new_index)] = (
                    new_epoch, rpos, new_epoch, rpos,
                )
                cursors[(index, new_index)] = (epoch, lpos, new_epoch, rpos)
                continue
            if slot == 0:
                cursors[key] = (epoch, lpos) + cursor[2:]
                other, theirs = key[1], cursor[2:]
            else:
                cursors[key] = cursor[:2] + (epoch, lpos)
                other, theirs = key[0], cursor[:2]
            cursors[(other, new_index)] = theirs + (new_epoch, rpos)
        self._rebuild_targets(index, left_cols)
        self._rebuild_targets(new_index, right_cols)

    def _rebuild_targets(self, index: int, cols) -> None:
        relevant = self._relevant
        self._dsts[index] = {
            dst for _src, dst, label_id, _eid in cols.iter_rows()
            if relevant(label_id)
        }
        self._sorted[index] = None

    def rows(self, index: int, start: int = 0) -> list:
        """``(src, dst, label_id, enc_id)`` rows logged from ``start``."""
        cols = self._rows.get(index)
        if cols is None:
            return []
        return list(zip(*(col[start:] for col in cols)))

    def plan(self, partitions, pair) -> dict:
        """What a visit of ``pair`` must seed, read from the log alone
        (nothing needs to be loaded): ``{(p, q): seed}`` for each cell
        of the pair that has work.

        ``seed`` is None for a *full* seed -- the cell has no cursor, or
        an epoch moved since it was taken -- and then every left of the
        cell seeds; such a cell is listed only if ``p``'s join index
        reaches into ``q``.  Otherwise it is ``(lefts, rights)``, rows
        past the cell's cursor: ``p``'s that can be a left operand
        joining in ``q``, and ``q``'s that can be a right operand for a
        left ``p`` may hold.  An empty plan proves the pair workless.
        """
        relevant, target = self._relevant, self._target
        cells = tuple(dict.fromkeys(pair))
        out: dict = {}
        for p in cells:
            dsts = self._dsts.get(p, ())
            for q in cells:
                lo, hi = partitions[q].lo, partitions[q].hi
                key = pair if p != q else (p, p)
                left_at = self._since(key, p)
                right_at = self._since(key, q)
                if left_at is None or right_at is None:
                    if self._overlaps(p, lo, hi):
                        out[(p, q)] = None
                    continue
                lefts = [
                    row for row in self.rows(p, left_at)
                    if lo <= row[1] < hi and relevant(row[2])
                ]
                rights = [
                    row for row in self.rows(q, right_at)
                    if row[0] in dsts and target(row[2])
                ]
                if lefts or rights:
                    out[(p, q)] = (lefts, rights)
        return out

    def _since(self, key, index: int):
        """Where ``key``'s cursor left ``index``'s log, or None (no
        cursor, or one from another epoch)."""
        cursor = self._cursor.get(key)
        if cursor is None:
            return None
        slot = 0 if index == key[0] else 2
        if cursor[slot] != self._epoch.get(index, 0):
            return None
        return cursor[slot + 1]

    def advance(self, key) -> None:
        """The cells under ``key`` (a pair, or ``(p, p)`` for an intra
        cell) were just closed: move its cursor to the end of both
        logs."""
        i, j = key
        rows, epoch = self._rows, self._epoch
        self._cursor[key] = (
            epoch.get(i, 0), len(rows[i][0]) if i in rows else 0,
            epoch.get(j, 0), len(rows[j][0]) if j in rows else 0,
        )

    def _overlaps(self, index: int, lo: int, hi: int) -> bool:
        snapshot = self._sorted.get(index)
        if snapshot is None:
            snapshot = sorted(self._dsts.get(index, ()))
            self._sorted[index] = snapshot
        at = bisect_right(snapshot, lo - 1)
        return at < len(snapshot) and snapshot[at] < hi


class PairScheduler:
    """Tracks pair eligibility over a store's (mutable) partition list."""

    def __init__(self, store):
        self.store = store
        self.last_seen: dict = {}
        self._heap: list = []
        self._in_heap: set = set()
        # Last version observed per partition index by the refresh sweep.
        self._known_versions: list = []

    # -- internals -------------------------------------------------------------

    def _push(self, pair) -> None:
        if pair not in self._in_heap:
            self._in_heap.add(pair)
            heapq.heappush(self._heap, pair)

    def _refresh(self) -> None:
        """O(P) sweep: requeue every pair touching a partition whose
        version changed (or that was created) since the last sweep."""
        partitions = self.store.partitions
        n = len(partitions)
        known = self._known_versions
        changed = []
        for index in range(len(known)):
            version = partitions[index].version
            if version != known[index]:
                known[index] = version
                changed.append(index)
        for index in range(len(known), n):  # newly created partitions
            known.append(partitions[index].version)
            changed.append(index)
        for p in changed:
            for q in range(n):
                self._push((p, q) if p <= q else (q, p))

    def _eligible(self, pair) -> bool:
        i, j = pair
        partitions = self.store.partitions
        seen = self.last_seen.get(pair)
        if seen is None:
            return True
        return (
            partitions[i].version > seen[0] or partitions[j].version > seen[1]
        )

    # -- API -------------------------------------------------------------------

    def captured_versions(self, pair) -> tuple:
        i, j = pair
        partitions = self.store.partitions
        return (partitions[i].version, partitions[j].version)

    def mark_processed(self, pair, captured: tuple) -> None:
        """Record the versions the pair was processed at (captured before
        processing started, as the serial loop always did)."""
        self.last_seen[pair] = captured

    def restore(self, last_seen: dict) -> None:
        """Adopt a checkpoint manifest's processed-pair frontier
        (``--resume``): eligibility picks up exactly where the
        checkpointed run left off, judged against the restored partition
        versions."""
        self.last_seen = dict(last_seen)

    def next_pair(self):
        """The lexicographically smallest eligible pair, or None."""
        self._refresh()
        while self._heap:
            pair = self._heap[0]
            if self._eligible(pair):
                return pair
            heapq.heappop(self._heap)
            self._in_heap.discard(pair)
        return None

    def eligible_count(self) -> int:
        """How many queued pairs are currently eligible (the heartbeat's
        "eligible" figure; an O(heap) sweep, called at most once per
        heartbeat interval)."""
        self._refresh()
        return sum(1 for pair in self._in_heap if self._eligible(pair))
