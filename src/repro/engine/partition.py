"""Edge partitions and the memory-first partition store.

A partition owns a half-open interval of source-vertex ids and stores every
edge whose source falls in the interval.  The store keeps partitions
*resident* (a small write-back cache of
:class:`~repro.engine.columnar.EdgeColumns`) while they fit and goes to
disk only for what does not (paper §4.3: partitions are loaded, kept
while they fit, evicted and repartitioned eagerly when they do not).  A
new partition is handed to the cache as it is built; a partition *file*
is produced by an eviction or by a checkpoint flush -- never by
construction.  A closure whose partitions all stay resident therefore
writes nothing (and a scratch store does not even create its
directory).  The computation loads at most two partitions at a time (its
pair) and splits any partition whose estimated in-memory size exceeds
the budget ("eager repartitioning", §4.3).

Loaded partitions are :class:`~repro.engine.columnar.EdgeColumns` (sorted
int64 columns plus an insert overlay, encodings interned in the store's
shared :class:`~repro.engine.columnar.EncodingTable`); partition files use
the bulk columnar wire format (``serialize.encode_columnar``): the four
columns as they are, so an eviction is four ``tobytes`` and a load four
``frombytes`` plus a checksum -- nothing is decoded or re-interned.  Ids
are all the store ever writes; the table that defines them is resident
for the whole phase (and outside the memory budget, which is accounted
in columnar bytes: 32 per row plus string-payload text), and a durable
workdir carries it as an append-only encoding log (``encodings.bin``).
Loads are synchronous, on the engine's thread.

Edges that arrive for a partition outside the cache
(:meth:`PartitionStore.append_delta`) wait in memory as that partition's
*pending rows*, charged to its ``byte_estimate``.  The next
:meth:`~PartitionStore.load` folds them into the columns it reads, in
arrival order; a resident target takes them as they are.  Pending rows
are never written on their own: a durable checkpoint (:meth:`flush`), or
a pending list past its partition's share of the budget, loads the
partition, folds them in and writes the partition file.  So a partition
is always one file, and the on-disk formats are partition files, the
encoding log and the checkpoint manifest.

Every way edges enter or move between partitions outside the engine's
own insert loop passes through this module, so the store also keeps the
closure's :class:`~repro.engine.scheduling.DeltaLog` (``store.log``,
attached by the engine for the duration of a phase) truthful: appended
edges are recorded as arrivals, and a split hands each half its share of
the partition's log and cursors.

Durability (DESIGN.md §11) is paid where a run can be resumed, i.e. by a
``durable`` store (the engine's explicit ``workdir``): partition files
are replaced atomically (temp + fsync + rename), so a crash leaves the
previous complete version on disk, and before a partition file is
written the encodings interned since the last write are appended to the
encoding log as one checksummed frame and fsynced, so no file on disk
ever holds an id the log does not.  A checkpoint flush leaves no pending
row outside the files its manifest names, and those files keep the
checkpoint's state until the next manifest: a partition written in
between goes to a fresh file (:attr:`PartitionStore.committed`).  Rows
that arrive after a checkpoint are re-derived by a resume, which
restarts from the manifest's frontier.  A
scratch store (``durable=False``: a temp directory nothing can point at
again, removed with the result) keeps temp + rename but skips the fsync
and the encoding log (its table dies with the process that owns the
files), and :meth:`PartitionStore.settle` compacts its resident columns
at the end of a phase instead of writing them.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass

from repro.engine import serialize
from repro.engine.columnar import ROW_BYTES, EdgeColumns, EncodingTable
from repro.engine.stats import EngineStats
from repro.faults import NULL_PLAN
from repro.obs.trace import TraceRecorder

#: A durable workdir's encoding log: the table its partition files' ids
#: index, as checksummed frames of tuples in id order.
ENCODING_LOG = "encodings.bin"

#: Fewest partitions a graph starts in, however small it is.
MIN_PARTITIONS = 2


@dataclass
class Partition:
    """Descriptor of one partition (resident, on disk, or both)."""

    index: int
    lo: int
    hi: int  # half-open: owns src ids in [lo, hi)
    path: str
    edge_count: int = 0
    byte_estimate: int = 0  # includes the partition's pending rows
    version: int = 0  # bumped whenever edges are added

    def owns(self, src: int) -> bool:
        return self.lo <= src < self.hi


class PartitionStore:
    """Manages the set of partitions for one engine run."""

    def __init__(self, workdir: str, memory_budget: int,
                 stats: EngineStats | None = None, cache_slots: int = 4,
                 table: EncodingTable | None = None, trace=None,
                 faults=None, durable: bool = True):
        self.workdir = workdir
        # False = scratch: nothing can resume from ``workdir``, so
        # writes skip fsync and the directory is only created by the
        # first byte that has to leave memory.
        self.durable = durable
        self.memory_budget = memory_budget
        self.stats = stats or EngineStats()
        self.trace = trace or TraceRecorder(chrome=False)
        self.faults = faults if faults is not None else NULL_PLAN
        self.table = table if table is not None else EncodingTable()
        # How many of the table's encodings the workdir's log holds
        # (durable stores only; a scratch store never logs).
        self.encodings_logged = 0
        # The closure's arrival log (scheduling.DeltaLog), attached by
        # the engine while a phase runs; None = nobody is listening.
        self.log = None
        # Rows that arrived for partitions outside the cache, in arrival
        # order (index -> [(src, dst, label_id, enc_id)]), and their
        # bytes; the next load of the partition folds them in.
        self._pending: dict[int, list] = {}
        self._pending_bytes: dict[int, int] = {}
        # Durable store: the partition files the last checkpoint manifest
        # names (set by the engine when it writes one).  They keep the
        # checkpoint's state until the next manifest: a partition written
        # in between goes to a fresh file, and the prune after that
        # manifest removes the old one.
        self.committed: set[str] = set()
        self.partitions: list[Partition] = []
        self._next_file = 0
        # Write-back cache of resident partitions: index -> columns.
        # New partitions start here (dirty); dirty entries are written
        # on eviction.  Keeping a few partitions resident is what keeps
        # the I/O share of the runtime at the few percent the paper
        # reports.
        self.cache_slots = max(2, cache_slots)
        self._cache: dict[int, EdgeColumns] = {}
        self._dirty: set[int] = set()
        # Sorted (lo, index) view of the partition intervals for bisect
        # lookup; rebuilt lazily after any boundary change.
        self._bounds_los: list[int] = []
        self._bounds_index: list[int] = []
        self._bounds_stale = True
        if durable:
            os.makedirs(workdir, exist_ok=True)

    # -- construction --------------------------------------------------------

    def initialize(self, edges: dict, num_vertices: int,
                   min_partitions: int = MIN_PARTITIONS,
                   note_target=None) -> None:
        """Preprocessing: split the input graph into balanced partitions.

        Partition boundaries are chosen so each holds roughly equal edge
        bytes, with enough partitions that any two fit in the budget.
        The store *takes* ``edges`` (``{src: {(dst, label_id): set}}``):
        one sorted walk moves each source's targets out of the map into
        its partition's columns, so every input edge exists once, in the
        budgeted store, and the map is left empty.  ``note_target(index,
        dst, label_id)`` is called for each moved ``(dst, label_id)`` --
        the engine's join index, read before the targets are dropped.
        """
        sources = sorted(edges)
        sizes = [_source_bytes(edges[src]) for src in sources]
        per_partition_cap = max(self.memory_budget // 2, 1)
        wanted = max(min_partitions, -(-sum(sizes) // per_partition_cap))
        at = 0
        for lo, hi in _balanced_boundaries(sources, sizes, num_vertices,
                                           wanted):
            chunk = {}
            index = len(self.partitions)
            while at < len(sources) and sources[at] < hi:
                src = sources[at]
                targets = chunk[src] = edges.pop(src)
                if note_target is not None:
                    for dst, label_id in targets:
                        note_target(index, dst, label_id)
                at += 1
            self._create_partition(lo, hi, chunk)

    def _create_partition(self, lo: int, hi: int, chunk: dict) -> Partition:
        part = Partition(
            index=len(self.partitions),
            lo=lo,
            hi=hi,
            path=self._fresh_path(),
        )
        cols = EdgeColumns.from_dict(chunk, self.table)
        part.edge_count = cols.edge_count
        part.byte_estimate = cols.columnar_bytes()
        self.partitions.append(part)
        self._bounds_stale = True
        if len(self._cache) < self.cache_slots:
            # Memory-first: resident and dirty, so the file appears only
            # if the partition is ever evicted or checkpointed.
            self._cache[part.index] = cols
            self._dirty.add(part.index)
        else:
            self._save(part, cols)
        return part

    def _fresh_path(self) -> str:
        path = os.path.join(self.workdir, f"part_{self._next_file:05d}.bin")
        self._next_file += 1
        return path

    # -- I/O ------------------------------------------------------------------

    def _make_dir(self) -> None:
        """A scratch store's directory is made by its first write."""
        if not self.durable:
            os.makedirs(self.workdir, mode=0o700, exist_ok=True)

    def _write_file(self, path: str, data: bytes, replace: bool = True) -> None:
        self._make_dir()
        self.stats.partition_writes += 1
        self.stats.partition_bytes_written += len(data)
        serialize.atomic_write_bytes(
            path, data, replace=replace, durable=self.durable
        )

    def _log_encodings(self) -> None:
        """Durable store: append the encodings interned since the last
        append to the workdir's log and fsync it.  Runs before every
        partition write, so no file on disk ever references an id the
        log does not hold; most writes find nothing new."""
        table = self.table
        if not self.durable or len(table) == self.encodings_logged:
            return
        frame = serialize.encode_frame(
            serialize.encode_encodings(table.since(self.encodings_logged))
        )
        # One write call per frame: a crash leaves at most a truncated
        # tail, which the resume cuts off.
        with open(os.path.join(self.workdir, ENCODING_LOG), "ab") as f:
            f.write(frame)
            f.flush()
            os.fsync(f.fileno())
        self.encodings_logged = len(table)

    def replay_encodings(self) -> int:
        """Resume: intern the workdir's encoding log into the (still
        empty) table in order, so every id lands where the interrupted
        run issued it.  A truncated trailing frame -- a crash mid-append;
        no partition file references it, the fsync comes first -- is cut
        off so later appends stay framed.  Returns how many interior
        frames failed their checksum or would not decode: the ids after
        such a frame are unknowable, so the caller refuses the resume."""
        path = os.path.join(self.workdir, ENCODING_LOG)
        try:
            with open(path, "rb") as f:
                data = f.read()
        except FileNotFoundError:
            data = b""
        payloads, dropped, corrupt = serialize.split_frames(data)
        intern = self.table.intern
        for payload in payloads:
            try:
                encodings = serialize.decode_encodings(payload)
            except ValueError:
                corrupt += 1
                continue
            for encoding in encodings:
                intern(encoding)
        if dropped and not corrupt:
            os.truncate(path, sum(
                serialize.FRAME_HEADER_BYTES + len(p) for p in payloads
            ))
        self.encodings_logged = len(self.table)
        return corrupt

    def _save(self, part: Partition, cols: EdgeColumns) -> None:
        with self.trace.span("partition-save", cat="io"):
            if part.path in self.committed:
                part.path = self._fresh_path()
            self._log_encodings()
            data = cols.encode()
            spec = self.faults.fire("partition-write")
            if spec is not None and spec.mode == "short_write":
                # The legacy torn write this layer eliminates: truncated
                # bytes straight at the destination path.
                self._make_dir()
                with open(part.path, "wb") as f:
                    f.write(data[: max(1, len(data) // 2)])
            elif spec is not None and spec.mode == "torn_rename":
                # Crash between temp write and rename: the previous
                # durable version stays; the new bytes sit in the temp.
                self._write_file(part.path, data, replace=False)
            else:
                self._write_file(part.path, data)
            if spec is not None:
                # The injected crash left disk stale or corrupt; keep
                # the newest columns resident and dirty so a later flush
                # rewrites them (the fault is latched once-per-run) and
                # this run's own reads never adopt the damaged file.
                self._cache[part.index] = cols
                self._dirty.add(part.index)

    def _read(self, part: Partition) -> EdgeColumns:
        """``part``'s file as columns; any unreadable partition file
        (truncated, missing, bad magic, foreign ids) surfaces as
        :class:`CorruptPartition` for the retry layer, which rebuilds
        from the best surviving copy."""
        try:
            with open(part.path, "rb") as f:
                parsed = serialize.parse_columnar(f.read())
            return EdgeColumns.from_file(parsed, self.table)
        except serialize.CorruptPartition:
            raise
        except Exception as exc:
            raise serialize.CorruptPartition(
                f"unreadable partition file"
                f" {os.path.basename(part.path)}: {exc}"
            ) from exc

    def _fold(self, part: Partition) -> tuple[EdgeColumns, bool]:
        """Read ``part`` and fold its pending rows in, in arrival order;
        also whether there were any.  The rows stay pending if the read
        raises."""
        with self.trace.span("partition-load", cat="io"):
            cols = self._read(part)
        rows = self._pending.pop(part.index, ())
        if rows:
            del self._pending_bytes[part.index]
            insert = cols.insert
            for row in rows:
                insert(*row)
            part.edge_count = cols.edge_count
            part.byte_estimate = cols.columnar_bytes()
        return cols, bool(rows)

    def load(self, part: Partition) -> EdgeColumns:
        """Load a partition (cache-aware), folding in its pending rows."""
        cached = self._cache.get(part.index)
        if cached is not None:
            return cached
        cols, folded = self._fold(part)
        # Folded rows live only in the resident columns now: dirty, so
        # an eviction or checkpoint writes them.
        self._cache_insert(part.index, cols, dirty=folded)
        return cols

    def save(self, part: Partition, cols: EdgeColumns) -> None:
        part.edge_count = cols.edge_count
        part.byte_estimate = cols.columnar_bytes()
        self._cache_insert(part.index, cols, dirty=True)

    def _cache_insert(self, index: int, cols: EdgeColumns, dirty: bool) -> None:
        if dirty:
            self._dirty.add(index)
        if index in self._cache:
            self._cache[index] = cols
            return
        while len(self._cache) >= self.cache_slots:
            victim = next(iter(self._cache))
            self._evict(victim)
        self._cache[index] = cols

    def _evict(self, index: int) -> None:
        cols = self._cache.pop(index)
        if index in self._dirty:
            self._dirty.discard(index)
            self._save(self.partitions[index], cols)

    def flush(self) -> None:
        """Write every partition whose newest edges are only in memory:
        each with pending rows (folded in, outside the cache) and every
        dirty cached one.  Afterwards the files hold every edge."""
        for index in list(self._pending):
            part = self.partitions[index]
            self._save(part, self._fold(part)[0])
        for index in list(self._dirty):
            self._dirty.discard(index)
            self._save(self.partitions[index], self._cache[index])

    def settle(self) -> None:
        """End of a phase.  A durable store flushes (a resume must find
        every partition on disk).  A scratch store's results are read
        back through :meth:`load`, which hits the cache, so it only
        compacts the resident columns: a flush did that as a side effect
        of encoding, and without it the phase's insert overlays would
        stay alive for as long as the result does."""
        if self.durable:
            self.flush()
            return
        for cols in self._cache.values():
            cols.compact()

    def rebuild(self, part: Partition) -> bool:
        """Rewrite a corrupt partition file from the best surviving copy.

        Preference order: the resident cached columns (always current),
        else a complete ``.tmp`` left behind by a torn rename (the
        newest durable bytes; pending rows stay pending and fold on the
        next load).  Returns False when neither exists -- the caller
        quarantines.
        """
        cached = self._cache.get(part.index)
        if cached is not None:
            self._dirty.discard(part.index)
            self._save(part, cached)
            self.stats.partitions_rebuilt += 1
            return True
        tmp = f"{part.path}.tmp"
        try:
            with open(tmp, "rb") as f:
                data = f.read()
            serialize.parse_columnar(data)
        except Exception:
            return False
        self._write_file(part.path, data)
        self.stats.partitions_rebuilt += 1
        return True

    def append_delta(self, part: Partition, chunk: dict) -> int:
        """Add edges to a partition the computation does not have
        loaded; returns how many arrived.  ``chunk`` is ``{src: {(dst,
        label_id): set}}`` of encoding *ids* (this store's table): a
        resident partition takes them as they are, deduplicating;
        otherwise they join its pending rows (duplicates fold away on
        load, so the arrival log over-approximates -- a duplicate is a
        harmless seed whose compositions dedup away).  A pending list
        past its share of the budget -- what its partition may hold
        before it splits -- is folded into the partition file at once."""
        if not chunk:
            return 0
        log = self.log
        index = part.index
        cached = self._cache.get(index)
        rows = []  # arrivals for a partition outside the cache
        added = 0
        for src, targets in chunk.items():
            for (dst, label_id), eids in targets.items():
                for eid in eids:
                    if cached is None:
                        rows.append((src, dst, label_id, eid))
                    elif not cached.insert(src, dst, label_id, eid):
                        continue
                    added += 1
                    if log is not None:
                        log.record(index, src, dst, label_id, eid)
        if not added:
            return 0
        part.version += 1
        part.edge_count += added
        if cached is not None:
            self._dirty.add(index)
            part.byte_estimate = cached.columnar_bytes()
            return added
        row_bytes = self.table.row_bytes
        grown = sum(row_bytes(row[3]) for row in rows)
        part.byte_estimate += grown
        self.stats.pending_rows += added
        self._pending.setdefault(index, []).extend(rows)
        waiting = self._pending_bytes[index] = (
            self._pending_bytes.get(index, 0) + grown
        )
        if waiting > self.memory_budget // 2:
            self._save(part, self._fold(part)[0])
        return added

    # Kept only because the committed benchmarks/harness wraps it
    # (``layers.py::WRAPS``); nothing calls it.  Drop it with that entry.
    def prefetch_schedule(self, *args) -> None:
        pass

    # -- lookup / repartitioning ----------------------------------------------

    def _rebuild_bounds(self) -> None:
        order = sorted(range(len(self.partitions)),
                       key=lambda i: self.partitions[i].lo)
        self._bounds_los = [self.partitions[i].lo for i in order]
        self._bounds_index = order
        self._bounds_stale = False

    def partition_of(self, src: int) -> Partition:
        """The partition owning source vertex ``src`` (bisect over the
        sorted interval boundaries; partitions tile the vertex space)."""
        if self._bounds_stale:
            self._rebuild_bounds()
        at = bisect_right(self._bounds_los, src) - 1
        if at >= 0:
            part = self.partitions[self._bounds_index[at]]
            if part.owns(src):
                return part
        raise KeyError(f"no partition owns vertex {src}")

    def needs_split(self, part: Partition) -> bool:
        return part.byte_estimate > self.memory_budget // 2

    def split(self, part: Partition, cols: EdgeColumns) -> tuple:
        """Split one loaded partition into two balanced halves.

        Returns ``(left_part, left_cols, right_part, right_cols)``; the
        original descriptor is reused for the left half.
        """
        with self.trace.span(
            "repartition", cat="store", partition=part.index
        ) as span:
            result = self._split(part, cols)
            span.args["split"] = result[2] is not None
        return result

    def _split(self, part: Partition, cols: EdgeColumns) -> tuple:
        if part.hi - part.lo < 2:
            return part, cols, None, None  # cannot split a single vertex
        weights = cols.src_weights()
        if not weights:
            return part, cols, None, None
        total = cols.columnar_bytes()
        running = 0
        mid = None
        for src in sorted(weights):
            running += weights[src]
            if running >= total // 2:
                mid = src + 1
                break
        if mid is None or mid <= part.lo or mid >= part.hi:
            mid = (part.lo + part.hi) // 2
        if mid <= part.lo or mid >= part.hi:
            return part, cols, None, None
        left_cols, right_cols = cols.split_at(mid)
        new_part = Partition(
            index=len(self.partitions),
            lo=mid,
            hi=part.hi,
            path=self._fresh_path(),
        )
        part.hi = mid
        part.version += 1
        new_part.version = 1
        self.partitions.append(new_part)
        self._bounds_stale = True
        self.save(part, left_cols)
        self.save(new_part, right_cols)
        self.stats.repartitions += 1
        if self.log is not None:
            self.log.split(part.index, new_part.index, mid, left_cols,
                           right_cols)
        return part, left_cols, new_part, right_cols

    def total_edges(self) -> int:
        return sum(p.edge_count for p in self.partitions)

    def cache_occupancy(self) -> float:
        """Resident cached partition bytes as a fraction of the budget
        (the heartbeat's "budget occupancy")."""
        if not self.memory_budget:
            return 0.0
        resident = sum(
            self.partitions[index].byte_estimate for index in self._cache
        )
        return resident / self.memory_budget

    def iter_all_edges(self):
        """Stream every edge, partition by partition (resident columns
        first-hand, the rest from disk): ``(src, dst, label_id,
        encoding)``.  Partitions go in vertex-interval order, not
        creation order (a split appends its right half last), so the
        result does not depend on the split history, i.e. the budget."""
        decode = self.table.decode
        for part in sorted(self.partitions, key=lambda part: part.lo):
            cols = self.load(part)
            for src, dst, label_id, eid in cols.iter_rows():
                yield src, dst, label_id, decode(eid)


def _balanced_boundaries(sources: list, sizes: list, num_vertices: int,
                         wanted: int):
    """Split ``[0, num_vertices)`` into ``wanted`` byte-balanced intervals
    (``sources`` sorted, ``sizes`` their estimated bytes)."""
    span = max(num_vertices, 1)
    wanted = max(1, min(wanted, span))
    target = (sum(sizes) or 1) / wanted
    boundaries = []
    lo = 0
    running = 0
    produced = 0
    for src, size in zip(sources, sizes):
        running += size
        if running >= target and produced < wanted - 1 and src + 1 < span:
            boundaries.append((lo, src + 1))
            lo = src + 1
            running = 0
            produced += 1
    boundaries.append((lo, span))
    return boundaries


def _source_bytes(targets: dict) -> int:
    """Columnar-bytes estimate of one source's tuple-shaped targets (32
    per row plus string-constraint text, matching EdgeColumns
    accounting)."""
    total = 0
    for encodings in targets.values():
        for encoding in encodings:
            total += ROW_BYTES
            for elem in encoding:
                if elem[0] == "S":
                    total += 64 + len(elem[1])
    return total
