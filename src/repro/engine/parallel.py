"""Multiprocess partition-pair computation (coordinator + workers).

The closure over partition pairs is embarrassingly partition-parallel:
two pairs that share no partition read and write disjoint data.  The
coordinator therefore repeatedly selects a *wave* of mutually disjoint
eligible pairs (:meth:`repro.engine.scheduling.PairScheduler.select_wave`)
and dispatches them to a persistent forked process pool (a
``ProcessPoolExecutor``, which -- unlike ``multiprocessing.Pool`` --
surfaces an abruptly killed worker as ``BrokenProcessPool`` instead of
hanging forever, so the coordinator can rebuild the pool and requeue the
task; DESIGN.md §11 describes the retry/quarantine protocol):

* each **worker** loads its two partitions from the on-disk store
  (through a version-validated, worker-local decoded-partition cache),
  runs the join/compose/feasibility loop with a worker-local LRU and
  decode cache, buffers edges owned by unloaded partitions as spill
  chunks, and returns (the new edges of its dirty partitions, spill
  chunks, an :class:`EngineStats` delta, hot constraint-cache entries);
* the **coordinator** merges the new edges and spills into the canonical
  store with deduplication (so pair re-eligibility stays tight and the
  fixpoint terminates), folds returned hot cache entries into a shared
  warm cache broadcast with the next wave, applies version bumps, and
  splits oversized partitions serially *between* waves.

Workers run the engine's one pair drain (``GraphEngine._pair_body``:
semi-naive, in-pair closure per visit) and the coordinator keeps the
same bookkeeping the serial loop does -- one
:class:`~repro.engine.scheduling.DeltaLog` per phase, fed by the store
for merged and spilled edges and by the inline engine for its own
inserts.  An inline task reads its seed straight from the log; a pooled
task gets the same rows decoded to tuples (``WaveTask.seeds``).

Not every pair is worth a round trip: the first pair of every wave runs
in the coordinator process against the store's write-back cache (paying
no IPC and no file I/O) while the pool chews the rest.  When the machine
has a single CPU -- or ``parallel_dispatch`` is ``"inline"`` -- the pool
is skipped entirely: a worker process that can never run concurrently
with the coordinator is pure overhead.

Pool workers are forked, so they inherit the ICFET, grammar, and
vertex/label tables read-only by copy-on-write; only pair descriptors,
delta edges and results cross the process boundary.  Because edge chunks
reference label *ids*, the coordinator pre-interns every label the
grammar can ever produce (:meth:`Grammar.closure_labels`) before forking;
a worker that still allocates a new label id fails loudly rather than
corrupt the label table.  On platforms without ``fork`` everything runs
inline.

Encoding ids are a different story: each process hash-conses encodings
into its own :class:`~repro.engine.columnar.EncodingTable`, so ids are
never valid across the boundary.  Everything that crosses it -- seed
edges in :class:`WaveTask`, new edges and spill chunks in a pooled
:class:`WaveResult`, warm-cache entries -- is tuple-encoded: the sender
decodes, the receiver interns.  What stays in the coordinator process
(the log, the inline engine's spills) keeps the store's ids.

Three layers rebuilt the data plane on top of that protocol
(DESIGN.md §13):

* **Shared-memory columns** (``engine/shm.py``): with ``--shm`` (the
  default, POSIX only) the coordinator publishes each pooled pair's
  partitions into named shared-memory segments instead of
  materialising them to disk; workers attach zero-copy ``memoryview``
  columns and remap the shared encoding stream incrementally, so the
  per-wave cost of handing a partition to a worker stops scaling with
  its size.  New edges return as one compact columnar slice per dirty
  partition (``WaveResult.columns``) rather than a tuple list.
* **Source-stratified sharding** (``--shard-by-source``): a
  :class:`~repro.engine.scheduling.StratumPlanner` orders each wave's
  eligible pairs by source stratum, clustering intra-stratum fan-out
  first, SSC-style.  Order never affects the fixpoint -- the planner
  only permutes which disjoint pairs fly together.
* **Work stealing across the wave boundary**: instead of a hard
  barrier, the coordinator absorbs results in *dispatch order* and,
  after each absorb, refills free pool slots with eligible pairs
  disjoint from everything still in flight (``pairs_stolen``).  Keying
  steal decisions to the absorb count -- never to wall-clock
  completion order -- keeps the schedule, and therefore the
  witness-capped output, bit-reproducible run over run; checkpoint
  manifests record the steal frontier at each (quiescent) wave end, so
  ``--resume`` replays identically.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from array import array
from bisect import bisect_right
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.engine import serialize
from repro.engine import shm as shm_mod
from repro.engine.cache import LRUCache
from repro.engine.columnar import EdgeColumns, EncodingTable
from repro.engine.computation import GraphEngine
from repro.engine.partition import _merge_edges, recode_chunk
from repro.engine.scheduling import DeltaLog, PairScheduler, StratumPlanner
from repro.engine.stats import EngineStats
from repro.obs.trace import NULL_RECORDER

#: Caps on cross-process cache traffic per wave.
CACHE_LOG_CAP = 4096
CACHE_SEED_CAP = 8192
#: Decoded partitions kept per pool worker (version-validated).
WORKER_CACHE_SLOTS = 8
#: Steal refills dispatched past a wave's initial fill, per pool slot --
#: bounds how far a wave can run past its checkpoint cadence.
STEAL_FACTOR = 4


def effective_workers(options) -> int:
    """How many pair computations can actually proceed concurrently."""
    workers = options.workers
    if options.parallel_dispatch == "auto":
        workers = min(workers, os.cpu_count() or 1)
    return max(1, workers)


@dataclass
class _PartView:
    """Pickling-safe snapshot of one partition descriptor."""

    index: int
    lo: int
    hi: int
    path: str
    version: int
    edge_count: int = 0
    byte_estimate: int = 0

    def owns(self, src: int) -> bool:
        return self.lo <= src < self.hi


@dataclass
class WaveTask:
    """One partition pair dispatched to a worker."""

    pair: tuple
    #: Snapshot of *all* partitions (index -> :class:`_PartView`) --
    #: stable for the whole wave since splits only happen between waves.
    #: ``None`` for inline tasks, which see the real store directly.
    parts: dict | None
    #: Pooled tasks only (filled when the pair is staged; an inline task
    #: reads the coordinator's log itself): ``(src, dst, label_id,
    #: encoding)`` rows that arrived in the pair since its last visit,
    #: tuple-encoded; ``None`` means "seed fully".
    seeds: list | None = None
    #: Warm constraint-cache entries to fold into the worker-local LRU.
    cache_seed: list = field(default_factory=list)
    #: Redelivery count: bumped by the coordinator each time the task is
    #: requeued after a worker death or a corrupt-partition load.
    attempt: int = 0
    #: Pair-partition index -> shared-memory segment ref (engine/shm.py).
    #: A partition listed here was *not* materialised to disk: the
    #: worker must attach or fail the task, never read the stale file.
    shm: dict = field(default_factory=dict)
    #: Segment ref of the coordinator's shared encoding-table stream.
    table_ref: dict | None = None
    #: Dispatch sequence within the wave; the coordinator absorbs
    #: results strictly in this order so steal refills are
    #: schedule-deterministic.
    seq: int = 0


@dataclass
class WaveResult:
    """Everything a worker sends back for one processed pair."""

    pair: tuple
    #: Pooled tasks: partition index -> the task's new edges as one
    #: encoded columnar slice (``serialize.encode_columnar`` bytes, rows
    #: in insertion order), for the coordinator to merge.
    columns: dict = field(default_factory=dict)
    #: Inline tasks: indices of the partitions the task added edges to
    #: (the edges themselves are already in the store and its log).
    dirty: tuple = ()
    #: partition index -> spill chunk {src: {(dst, label_id): set}} --
    #: encodings as tuples from a pooled task, store ids from an inline
    #: one.
    spills: dict = field(default_factory=dict)
    stats: EngineStats = field(default_factory=EngineStats)
    cache_entries: list = field(default_factory=list)
    #: True when the task ran inline: its edges and version bumps are
    #: already in the real store and must not be merged a second time.
    applied: bool = False
    #: Spans shipped from an out-of-process worker's trace recorder
    #: (:meth:`repro.obs.trace.TraceRecorder.ship` payload); None when
    #: tracing is off or the task ran inline against the shared recorder.
    trace: dict | None = None
    #: Gauge rows shipped from an out-of-process worker's resource
    #: sampler (:meth:`repro.obs.profile.ResourceSampler.ship` payload);
    #: None when profiling is off or the task ran inline.
    telemetry: dict | None = None


def _encode_edge_rows(rows: list, decode) -> bytes:
    """Pack ``(src, dst, label_id, enc_id)`` rows into one columnar
    slice (v2 wire format, rows kept in insertion order, encodings
    decoded into the slice's own table)."""
    src = array("q")
    dst = array("q")
    label = array("q")
    enc_local = array("q")
    local: dict = {}
    encodings: list = []
    for s, d, l, eid in rows:
        lid = local.get(eid)
        if lid is None:
            lid = local[eid] = len(encodings)
            encodings.append(decode(eid))
        src.append(s)
        dst.append(d)
        label.append(l)
        enc_local.append(lid)
    return serialize.encode_columnar(src, dst, label, enc_local, encodings)


def _decode_edge_rows(data: bytes) -> dict:
    """Back to the ``{src: {(dst, label): set[encoding]}}`` chunk shape.

    ``ColumnarFile.to_dict`` groups rows in file order -- which
    :func:`_encode_edge_rows` made insertion order -- so the chunk's
    dict/set construction order (and therefore every downstream
    witness-capped merge) follows the worker's insertion order.
    """
    return serialize.parse_columnar(data).to_dict()


# -- worker side ---------------------------------------------------------------

#: Set in the parent immediately before the pool forks; inherited by the
#: children via copy-on-write, never pickled.
_FORK_STATE: dict | None = None

#: Per-process lazily built worker engine.
_WORKER: "_WorkerEngine | None" = None


class _LoggingLRU(LRUCache):
    """LRU that records entries added since the last drain, so the worker
    can ship its freshest feasibility verdicts back to the coordinator."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self.added: list = []

    def put(self, key, value) -> None:
        if key not in self._data:
            self.added.append((key, value))
        super().put(key, value)

    def seed(self, entries) -> None:
        """Fold coordinator-broadcast entries in without re-logging them."""
        for key, value in entries:
            if key not in self._data:
                super().put(key, value)

    def drain_added(self, cap: int) -> list:
        added, self.added = self.added, []
        return added[-cap:] if len(added) > cap else added


class _WorkerStore:
    """Duck-typed store view for one out-of-process task.

    Loads the pair's partitions from their files through a small
    version-validated cache of decoded :class:`EdgeColumns` (the
    persistent worker sees the same partitions wave after wave, interning
    into the worker-local encoding table), never splits, and collects
    edges for unloaded partitions as in-memory spill chunks (still
    id-encoded; a pooled task decodes them once, on the way out).
    """

    def __init__(self, stats: EngineStats, table: EncodingTable):
        self.stats = stats
        self.table = table
        self.partitions: dict = {}
        self._los: list = []
        self._by_lo: list = []
        self._snapshot_versions: dict = {}
        self.spill_chunks: dict = {}
        self.dirty: set = set()
        # index -> (version the entry is valid for, decoded columns)
        self._decoded: dict = {}
        # Shared-memory plane (None when --no-shm / unsupported).
        self.shm_cache = None
        self.shm_refs: dict = {}
        self.table_ref: dict | None = None

    def set_snapshot(self, parts: dict, shm_refs: dict | None = None,
                     table_ref: dict | None = None) -> None:
        self.partitions = parts
        order = sorted(parts.values(), key=lambda p: p.lo)
        self._los = [p.lo for p in order]
        self._by_lo = order
        self._snapshot_versions = {p.index: p.version for p in order}
        self.spill_chunks = {}
        self.dirty = set()
        self.shm_refs = shm_refs or {}
        self.table_ref = table_ref
        if self.shm_cache is not None:
            self.shm_cache.stats = self.stats
            self.shm_cache.sweep()

    def load(self, part) -> EdgeColumns:
        entry = self._decoded.get(part.index)
        if entry is not None and entry[0] == part.version:
            return entry[1]
        ref = self.shm_refs.get(part.index)
        if ref is not None and self.shm_cache is not None:
            # The coordinator did NOT materialise this partition to
            # disk, so the file may be stale: attach or fail the task
            # (ShmAttachLost is a CorruptPartition; the coordinator
            # re-materialises, republishes, and retries the pair).
            with self.stats.timing("io_time"):
                try:
                    cols = self.shm_cache.attach(ref, self.table_ref)
                except shm_mod.ShmAttachLost:
                    self.stats.shm_attach_lost += 1
                    raise
            self._cache_decoded(part.index, part.version, cols)
            return cols
        with self.stats.timing("io_time"):
            try:
                with open(part.path, "rb") as f:
                    parsed = serialize.parse_columnar(f.read())
            except serialize.CorruptPartition:
                raise
            except Exception as exc:
                # Surface *any* unreadable file as CorruptPartition so the
                # coordinator's retry layer can rebuild it, rather than
                # letting an OSError abort the whole run.
                raise serialize.CorruptPartition(
                    "unreadable partition file"
                    f" {os.path.basename(part.path)}: {exc}"
                ) from exc
            cols = EdgeColumns.from_file(parsed, self.table)
        self._cache_decoded(part.index, part.version, cols)
        return cols

    def _cache_decoded(self, index: int, version: int, cols) -> None:
        self._decoded[index] = (version, cols)
        while len(self._decoded) > WORKER_CACHE_SLOTS:
            victim = next(iter(self._decoded))
            if victim == index:
                break
            del self._decoded[victim]

    def save(self, part, cols) -> None:
        part.edge_count = cols.edge_count
        part.byte_estimate = cols.columnar_bytes()
        self.dirty.add(part.index)
        # The coordinator bumps the canonical version by exactly one when
        # it merges this task's new edges; cache the decoded copy
        # optimistically under that version (NOT part.version, which the
        # engine bumped once per inserted edge during processing).  If
        # spill chunks from other pairs bump it further, the version
        # check forces a clean reload.
        self._cache_decoded(
            part.index, self._snapshot_versions[part.index] + 1, cols
        )

    def partition_of(self, src: int):
        at = bisect_right(self._los, src) - 1
        if at >= 0:
            part = self._by_lo[at]
            if part.owns(src):
                return part
        raise KeyError(f"no partition owns vertex {src}")

    def needs_split(self, part) -> bool:
        return False  # splits are the coordinator's job, between waves

    def append_delta(self, part, chunk: dict) -> None:
        target = self.spill_chunks.setdefault(part.index, {})
        _merge_edges(target, chunk)


class _WorkerEngine(GraphEngine):
    """Engine variant for pair tasks: no splits, per-task stats, and a
    logging LRU whose tuple-keyed entries ride back to the coordinator
    (the id-keyed memos of the base engine stay process-local).  The
    drain is the base engine's; only where a visit's seed comes from
    and where its new edges go differ by mode (see :meth:`run_task`)."""

    def __init__(self, icfet, grammar, options, graph, store=None):
        super().__init__(icfet, grammar, options)
        self.cache = _LoggingLRU(options.cache_capacity)
        self._graph = graph
        self._inline_mode = store is not None
        if store is not None:
            # Inline task: share the real store's interning so ids in
            # its cached EdgeColumns stay meaningful.
            self._store = store
            self._enc = store.table
        else:
            self._store = _WorkerStore(self.stats, self._enc)
            if options.shm and shm_mod.available():
                self._store.shm_cache = shm_mod.ShmAttachCache(
                    self._enc, stats=self.stats, faults=self.faults
                )
        # Out-of-process workers record into their own recorder (the
        # coordinator's, inherited through fork, would be invisible to
        # the parent) and ship drained spans back in each WaveResult;
        # the inline engine shares the coordinator's recorder directly
        # and must not ship (ship() drains).
        self._ships_trace = False
        if store is None and self.trace.enabled:
            from repro.obs.trace import TraceRecorder

            self.trace = TraceRecorder(role="worker")
            self._ships_trace = True
        # Same scheme for telemetry: the coordinator's sampler object
        # crosses the fork, but its thread does not -- an out-of-process
        # worker builds a fresh sampler (reading only the cadence) and
        # ships drained rows back in each WaveResult.
        self._sampler = None
        if store is None and options.sampler is not None:
            from repro.obs.profile import ResourceSampler

            self._sampler = ResourceSampler(
                interval=options.sampler.interval, role="worker"
            )
            self._sampler.start()
        from repro.grammar.cfg_grammar import ComposeContext

        self._ctx = ComposeContext(
            feasible=self._feasible, vertex=graph.vertices.lookup
        )
        self._deadline = None
        self._task_seeds: list | None = None

    def _pair_seeds(self, pair):
        if self._inline_mode:
            return super()._pair_seeds(pair)
        if self._task_seeds is None:
            return None
        intern = self._enc.intern
        return [
            (src, dst, label_id, intern(encoding))
            for src, dst, label_id, encoding in self._task_seeds
        ]

    def run_task(self, task: WaveTask) -> WaveResult:
        """Visit one pair.  Inline, the engine works against the
        coordinator's store and log directly: its inserts are already
        applied and recorded when it returns.  Pooled, the seed arrives
        in the task and a per-task log collects the new edges, which go
        back as one columnar slice per dirty partition."""
        busy_start = time.perf_counter()
        self.stats = EngineStats()
        if self.options.metrics:
            self.stats.ensure_metrics()
        store = self._store
        store.stats = self.stats
        store.set_snapshot(task.parts, task.shm, task.table_ref)
        if not self._inline_mode:
            self._task_seeds = task.seeds
            self._log = DeltaLog(self._rel_src_id)
        self.cache.seed(task.cache_seed)
        labels = self._graph.labels
        labels_before = len(labels)
        self._process_pair(*task.pair)
        if len(labels) != labels_before:
            fresh = [labels.lookup(i) for i in range(labels_before, len(labels))]
            raise RuntimeError(
                "parallel worker interned labels the coordinator never saw"
                f" ({fresh!r}); Grammar.closure_labels() is incomplete"
            )
        result = WaveResult(
            pair=task.pair,
            stats=self.stats,
            cache_entries=self.cache.drain_added(CACHE_LOG_CAP),
        )
        if self._inline_mode:
            result.applied = True
            result.dirty = tuple(store.dirty)
            result.spills = store.spill_chunks
        else:
            decode = self._enc.decode
            result.columns = {
                index: _encode_edge_rows(self._log.rows(index), decode)
                for index in store.dirty
            }
            result.spills = {
                index: recode_chunk(chunk, decode)
                for index, chunk in store.spill_chunks.items()
            }
            if self._ships_trace:
                result.trace = self.trace.ship()
            if self._sampler is not None:
                result.telemetry = self._sampler.ship()
        self.stats.worker_busy_s += time.perf_counter() - busy_start
        return result


def _worker_init() -> None:
    global _WORKER
    if sys.platform.startswith("linux"):
        # If the coordinator is killed outright (e.g. the fault harness's
        # kill_run), idle workers would otherwise block forever on the
        # executor's call queue; ask the kernel to reap us with it.
        try:
            import ctypes
            import signal

            ctypes.CDLL(None).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
        except Exception:
            pass
    state = _FORK_STATE
    _WORKER = _WorkerEngine(
        state["icfet"], state["grammar"], state["options"], state["graph"]
    )


def _worker_run(task: WaveTask) -> WaveResult:
    spec = _WORKER.faults.fire("worker-task")
    if spec is not None:
        _WORKER.faults.kill_self()
    return _WORKER.run_task(task)


# -- coordinator side ----------------------------------------------------------


class _InlineStore(_WorkerStore):
    """Worker-store facade over the coordinator's real store, used for
    pairs processed in the coordinator process: loads and saves go
    through the store's write-back cache (no IPC, no redundant decode,
    shared encoding table), spills are still collected for the
    coordinator's dedup merge, and the I/O the real store does on our
    behalf is accounted to the inline engine's stats so the pair's
    compute time stays truthful."""

    def __init__(self, real):
        super().__init__(real.stats, real.table)
        self._real = real

    def set_snapshot(self, parts, shm_refs=None, table_ref=None) -> None:
        # Real partitions, not views; shared memory never applies here.
        self.partitions = self._real.partitions
        self.spill_chunks = {}
        self.dirty = set()

    def load(self, part) -> EdgeColumns:
        real = self._real
        saved, real.stats = real.stats, self.stats
        try:
            return real.load(part)
        finally:
            real.stats = saved

    def save(self, part, cols) -> None:
        self.dirty.add(part.index)
        real = self._real
        saved, real.stats = real.stats, self.stats
        try:
            real.save(part, cols)
        finally:
            real.stats = saved

    def partition_of(self, src: int):
        return self._real.partition_of(src)


class ParallelCoordinator:
    """Drives the wave loop over an already-initialised engine/store."""

    def __init__(self, engine: GraphEngine):
        self.engine = engine
        self.store = engine._store
        self.stats = engine.stats
        self.options = engine.options

    def run(self) -> None:
        engine = self.engine
        # Workers must never allocate label ids, so intern everything the
        # grammar can ever produce before forking.
        labels = engine._graph.labels
        initial = [label for _i, label in labels.items()]
        for label in engine.grammar.closure_labels(initial):
            labels.intern(label)

        self._pool = None
        self._ctx = None
        self._procs = effective_workers(self.options)
        if self._procs > 1 and self.options.parallel_dispatch != "inline":
            try:
                self._ctx = multiprocessing.get_context("fork")
            except ValueError:  # no fork on this platform: run inline
                self._ctx = None
            if self._ctx is not None:
                global _FORK_STATE
                _FORK_STATE = {
                    "icfet": engine.icfet,
                    "grammar": engine.grammar,
                    "options": engine.options,
                    "graph": engine._graph,
                }
                self._pool = self._make_pool()
        # Shared-memory hub: only worth anything with a real pool, and
        # only where POSIX named segments exist.  A broken hub (ENOSPC
        # on /dev/shm, say) degrades to the materialize-to-disk path.
        self._hub = None
        if self._pool is not None and self.options.shm and shm_mod.available():
            self._hub = shm_mod.ShmHub(
                shm_mod.workdir_tag(self.store.workdir), stats=self.stats
            )
        sampler = self.options.sampler
        if sampler is not None and self._hub is not None:
            sampler.bind("shm_bytes_mapped", self._hub.mapped_bytes)
        # Stratum planner: resolve --shard-by-source ("auto" = one
        # stratum per pool slot; the planner engages from 2 strata up,
        # since 1 stratum is definitionally the serial pair order).
        raw = self.options.shard_by_source
        if raw in (None, False, 0, "off"):
            strata = 0
        elif raw == "auto":
            strata = self._procs if self._pool is not None else 0
        else:
            strata = max(0, int(raw))
        self._planner = (
            StratumPlanner(self.store, strata) if strata > 1 else None
        )
        self.stats.strata = strata
        self._steal = (
            self.options.steal
            and self._pool is not None
            and self.options.max_pairs is None
        )
        self._inline = _WorkerEngine(
            engine.icfet, engine.grammar, engine.options, engine._graph,
            store=_InlineStore(self.store),
        )
        # The inline engine visits pairs against the real store, so it
        # shares the phase's arrival log with it.
        self._inline._log = engine._open_log()
        try:
            self._wave_loop()
        finally:
            engine._close_log()
            _FORK_STATE = None
            if sampler is not None and self._hub is not None:
                sampler.unbind("shm_bytes_mapped")
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
            if self._hub is not None:
                self._hub.close()

    def _make_pool(self) -> ProcessPoolExecutor:
        """A fresh fork-context executor; workers inherit ``_FORK_STATE``
        (set before the first submit forks them) copy-on-write."""
        return ProcessPoolExecutor(
            max_workers=self._procs,
            mp_context=self._ctx,
            initializer=_worker_init,
        )

    def _rebuild_pool(self) -> None:
        """Replace a broken executor (a worker died abruptly; the
        executor marks itself unusable) with a fresh one."""
        old, self._pool = self._pool, None
        try:
            old.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        self._pool = self._make_pool()

    def _publish(self, index: int) -> dict | None:
        """Publish one partition to shared memory; None means the worker
        must fall back to the file (caller materialises it)."""
        hub = self._hub
        if hub is None:
            return None
        store = self.store
        part = store.partitions[index]
        return hub.publish(part, store.table, lambda: store.load(part))

    def _stage_pair(self, task: WaveTask) -> None:
        """Make a pooled pair's partitions reachable by a worker: publish
        each to shared memory, or materialise to disk those the hub
        could not take.  Refreshes ``task.shm``/``task.table_ref`` and
        the pair's own entries in ``task.parts`` -- a stolen pair's
        partitions may have advanced since the wave snapshot, and a
        stale view version would let the worker serve a stale decoded
        copy from its version cache (the delta seeds assume the base
        content contains them).  The seed is cut last: staging loads the
        partitions, and a load that salvages a damaged delta file
        resets the log."""
        store = self.store
        refs = {}
        for index in set(task.pair):
            ref = self._publish(index)
            if ref is None:
                store.materialize(store.partitions[index])
            else:
                refs[index] = ref
            if task.parts is not None:
                task.parts[index] = self._view(store.partitions[index])
        task.shm = refs
        task.table_ref = self._hub.table_ref if self._hub else None
        rows = self.engine._log.delta(task.pair)
        if rows is not None:
            decode = store.table.decode
            rows = [(s, d, l, decode(eid)) for s, d, l, eid in rows]
        task.seeds = rows

    @staticmethod
    def _view(p) -> _PartView:
        return _PartView(
            index=p.index, lo=p.lo, hi=p.hi, path=p.path,
            version=p.version, edge_count=p.edge_count,
            byte_estimate=p.byte_estimate,
        )

    # -- retry / quarantine ------------------------------------------------------

    def _attempt_inline(self, task: WaveTask) -> WaveResult:
        """Run one task in-process, retrying across CorruptPartition the
        same way pooled tasks are requeued."""
        while True:
            try:
                return self._inline.run_task(task)
            except serialize.CorruptPartition as exc:
                if task.attempt >= self.options.max_retries:
                    return self._quarantine_task(task, exc)
                task.attempt += 1
                self._recover_task(task, exc)

    def _submit(self, task: WaveTask):
        """Submit one task, transparently replacing a just-broken pool."""
        try:
            return self._pool.submit(_worker_run, task)
        except BrokenProcessPool:
            self._rebuild_pool()
            return self._pool.submit(_worker_run, task)

    def _stream_wave(self, tasks, absorb, build_task, seed_fn) -> None:
        """Dispatch a wave's pooled tasks, absorb results strictly in
        dispatch (``seq``) order, and -- when stealing is on -- refill
        freed pool slots with further eligible pairs between absorbs.

        Determinism: absorption order is the dispatch order regardless
        of completion order, and every steal decision is keyed to the
        absorb count (never to wall-clock), so the schedule -- and with
        it the witness-capped output -- is reproducible run over run.
        Free slots are therefore counted against the *dispatched-but-
        unabsorbed* set, never against the live future set: a completed
        task waiting in the reorder buffer no longer occupies a real
        pool slot, but counting its slot as free would make refill
        points (and with them the busy set each steal selects under)
        depend on completion timing.
        The busy set handed to the scheduler claims the partitions of
        every dispatched-but-unabsorbed pair, *including* completed ones
        waiting in the reorder buffer; that preserves the merge
        invariant (only a task's own edges reach its partitions between
        its dispatch and its mark), because any task absorbed earlier
        either finished before this one's delta snapshot or was
        partition-disjoint from it while in flight.

        Failed tasks (dead worker, corrupt partition) are requeued up to
        ``--max-retries`` and still absorb at their original seq, so a
        faulted run replays the clean run's merge order exactly.
        """
        engine = self.engine
        scheduler = engine._scheduler
        trace = getattr(engine, "trace", NULL_RECORDER)
        inflight: dict = {}     # future -> task
        outstanding: dict = {}  # seq -> task (dispatched, unabsorbed)
        buffered: dict = {}     # seq -> result (reorder buffer)
        dispatched = len(tasks)
        steal_budget = STEAL_FACTOR * self._procs if self._steal else 0

        for task in tasks[1:]:
            self._stage_pair(task)
            outstanding[task.seq] = task
            inflight[self._submit(task)] = task
        outstanding[0] = tasks[0]
        buffered[0] = self._attempt_inline(tasks[0])

        def refill() -> None:
            nonlocal dispatched, steal_budget
            while steal_budget > 0 and len(outstanding) < self._procs:
                if engine._deadline is not None and (
                    time.perf_counter() > engine._deadline
                ):
                    steal_budget = 0
                    return
                busy: set = set()
                for t in outstanding.values():
                    busy.update(t.pair)
                got = scheduler.select_wave(1, self._planner, busy=busy)
                if not got:
                    return
                pair = got[0]
                if engine._retire_if_dead(pair):
                    continue
                task = build_task(pair, dispatched, seed_fn())
                dispatched += 1
                steal_budget -= 1
                self.stats.pairs_stolen += 1
                trace.instant(
                    "steal", cat="steal",
                    pair=f"{pair[0]},{pair[1]}", seq=task.seq,
                )
                self._stage_pair(task)
                outstanding[task.seq] = task
                inflight[self._submit(task)] = task

        cursor = 0
        while True:
            while cursor in buffered:
                result = buffered.pop(cursor)
                del outstanding[cursor]
                absorb(result)
                cursor += 1
                refill()
            if not inflight:
                break
            done, _pending = futures_wait(
                list(inflight), return_when=FIRST_COMPLETED
            )
            failed = []
            broken = False
            for future in done:
                task = inflight.pop(future)
                try:
                    buffered[task.seq] = future.result()
                except BrokenProcessPool as exc:
                    broken = True
                    failed.append((task, exc, False))
                except serialize.CorruptPartition as exc:
                    failed.append((task, exc, True))
            if broken:
                # Every other future on the broken executor is doomed as
                # we reach it; harvest any that completed first, requeue
                # the rest onto the fresh pool.
                self._rebuild_pool()
                for future, task in list(inflight.items()):
                    del inflight[future]
                    try:
                        buffered[task.seq] = future.result(timeout=0)
                    except serialize.CorruptPartition as exc:
                        failed.append((task, exc, True))
                    except Exception as exc:
                        failed.append((task, exc, False))
            for task, exc, needs_recover in failed:
                if task.attempt >= self.options.max_retries:
                    buffered[task.seq] = self._quarantine_task(task, exc)
                    continue
                task.attempt += 1
                self.stats.retries += 1
                if needs_recover:
                    self._recover_task(task, exc, count_retry=False)
                inflight[self._submit(task)] = task

    def _recover_task(self, task: WaveTask, exc, count_retry=True) -> None:
        """Probe the pair's partition *files* (workers read them
        directly, so the coordinator's write-back cache must not mask
        the damage) and rewrite any unreadable one from its best
        surviving copy (:meth:`PartitionStore.rebuild`)."""
        engine = self.engine
        stats = self.stats
        store = self.store
        if count_retry:
            stats.retries += 1
        trace = engine.trace
        tick = trace.begin() if trace.enabled else 0.0
        for index in set(task.pair):
            part = store.partitions[index]
            if store.prefetch is not None:
                store.prefetch.invalidate(index)
            if self._hub is not None:
                # The published segment may be the casualty (unlinked or
                # torn): retire it so the republish below gets a fresh
                # generation instead of handing back a dead ref.
                self._hub.invalidate(index)
            try:
                with open(part.path, "rb") as f:
                    serialize.parse_columnar(f.read())
            except Exception:
                if not store.rebuild(part):
                    engine._quarantine_partition(part, exc)
        if task.parts is not None:
            # Pooled task: re-stage so the requeued attempt sees live
            # segments (or current files) rather than the refs that
            # just failed.
            self._stage_pair(task)
        if tick:
            trace.end(
                "retry", tick, cat="fault",
                pair=f"{task.pair[0]},{task.pair[1]}", attempt=task.attempt,
            )

    def _quarantine_task(self, task: WaveTask, exc) -> WaveResult:
        """Give up on one pair: warn, count, and return an empty applied
        result so the merge loop retires the pair normally."""
        self.stats.pairs_quarantined += 1
        print(
            f"grapple: giving up on partition pair {task.pair[0]},"
            f"{task.pair[1]} after {self.options.max_retries} retries:"
            f" {exc}",
            file=sys.stderr,
        )
        return WaveResult(pair=task.pair, applied=True)

    def _wave_loop(self) -> None:
        stats = self.stats
        store = self.store
        engine = self.engine
        trace = engine.trace
        heartbeat = engine._heartbeat
        sampler = self.options.sampler
        scheduler = PairScheduler(store)
        engine._scheduler = scheduler
        if engine._scheduler_seed:
            scheduler.restore(engine._scheduler_seed)
        warm_cache: dict = {}
        fresh_entries: list = []

        while True:
            if engine._deadline is not None and (
                time.perf_counter() > engine._deadline
            ):
                engine.timed_out = True
                stats.timed_out = True
                break
            # Without a pool there is nothing to overlap: a wide wave
            # only disperses the store cache's locality and schedules
            # pairs on staler eligibility, so fall back to one pair at a
            # time (the serial order).
            width = self.options.workers if self._pool is not None else 1
            if self.options.max_pairs is not None:
                width = min(
                    width, self.options.max_pairs - stats.pairs_processed
                )
                if width <= 0:
                    break
            wave = scheduler.select_wave(width, self._planner)
            if not wave:
                break
            wave = [
                pair for pair in wave if not engine._retire_if_dead(pair)
            ]
            if not wave:
                continue
            stats.waves += 1
            # One timestamp anchors two nested spans: "wave" covers
            # dispatch + result collection (merges now interleave with
            # collection), "iteration" the whole cycle including spill
            # merges and between-wave splits.
            wave_start = trace.begin() if trace.enabled else 0.0
            cycle_start = time.perf_counter()
            # The first pair of every wave runs in-process (against the
            # write-back cache, no IPC) while the pool -- when there is
            # one -- chews the rest.
            pooled = wave[1:] if self._pool is not None else ()

            seed = fresh_entries[-CACHE_SEED_CAP:]
            fresh_entries = []
            snapshot = None
            if pooled:
                snapshot = {
                    p.index: self._view(p) for p in store.partitions
                }

            def build_task(pair, seq, cache_seed):
                return WaveTask(
                    pair=pair,
                    parts=snapshot if seq > 0 and pooled else None,
                    cache_seed=cache_seed,
                    seq=seq,
                )

            tasks = [
                build_task(pair, seq, seed) for seq, pair in enumerate(wave)
            ]

            # -- streaming collection + steal refills -----------------------
            #
            # Results are absorbed strictly in dispatch (seq) order;
            # after each absorb the coordinator may dispatch a "stolen"
            # pair into a free pool slot.  Keying every steal decision
            # to the absorb count keeps the schedule deterministic, and
            # claiming the partitions of *all* dispatched-but-unabsorbed
            # tasks (not just unfinished ones) preserves the merge
            # invariant: between a task's dispatch and its mark, only
            # its own edges reach its partitions.
            touched: set = set()
            spill_results: list = []
            pool_busy = [0.0]

            def absorb(result):
                # The merge below is THE serialized stage the profiler
                # exists to attribute: span it so the critical-path
                # analyzer can tell absorb time from genuine idle.
                tick = trace.begin() if trace.enabled else 0.0
                trace.absorb(result.trace)
                if sampler is not None:
                    sampler.absorb(result.telemetry)
                stats.merge(result.stats)
                if not result.applied:
                    pool_busy[0] += result.stats.worker_busy_s
                stats.pairs_processed += 1
                stats.iterations = stats.pairs_processed
                # An inline task's edges and version bumps already
                # landed in the real store (and its log); a pooled
                # task's are merged, deduplicated and logged here.
                touched.update(result.dirty)
                for index, payload in result.columns.items():
                    touched.add(index)
                    store.merge_chunk(
                        store.partitions[index], _decode_edge_rows(payload)
                    )
                # Spill chunks from this wave merge below, after all
                # marks, so cross-pair edges still re-activate pairs.
                engine._mark_visited(result.pair)
                i, j = result.pair
                for key, value in result.cache_entries:
                    if key not in warm_cache:
                        warm_cache[key] = value
                        fresh_entries.append((key, value))
                spill_results.append(result)
                if trace.enabled:
                    trace.end(
                        "absorb", tick, cat="merge",
                        pair=f"{i},{j}", inline=result.applied,
                    )

            if pooled:
                self._stream_wave(
                    tasks, absorb, build_task,
                    lambda: fresh_entries[-CACHE_SEED_CAP:],
                )
            else:
                for task in tasks:
                    absorb(self._attempt_inline(task))
            if trace.enabled:
                trace.end(
                    "wave", wave_start, cat="wave",
                    wave=stats.waves, width=len(wave),
                )
            if pooled:
                elapsed = time.perf_counter() - cycle_start
                stats.worker_idle_s += max(
                    0.0, self._procs * elapsed - pool_busy[0]
                )

            # Spill chunks after the pairs' own edges so the dedup merge
            # sees each partition's freshest contents.  Chunks are
            # combined per partition first, id-encoded (a pooled task's
            # arrive as tuples and are interned here); the store merges
            # them into a resident partition and appends them to the
            # delta file of any other, logging the arrivals either way.
            spill_tick = trace.begin() if trace.enabled else 0.0
            combined: dict = {}
            intern = store.table.intern
            for result in spill_results:
                for index, chunk in result.spills.items():
                    if not result.applied:
                        chunk = recode_chunk(chunk, intern)
                    _merge_edges(combined.setdefault(index, {}), chunk)
            for index, chunk in combined.items():
                if store.append_delta(store.partitions[index], chunk):
                    touched.add(index)
            if trace.enabled and combined:
                trace.end(
                    "spill-merge", spill_tick, cat="merge",
                    partitions=len(combined),
                )
            self._split_oversized(touched)
            # One manifest per completed wave: everything merged above is
            # flushed durable first, so a crash from here on resumes at
            # the *next* wave (no-op when checkpointing is off).  The
            # manifest records the steal frontier -- waves only end once
            # every dispatched (stolen included) pair is absorbed, so a
            # resume replays from a quiescent point and stays
            # byte-identical.
            engine._steal_frontier = {
                "wave": stats.waves,
                "pairs_stolen": stats.pairs_stolen,
            }
            engine._write_checkpoint()
            # Wave lookahead for the I/O pipeline: the predicted next
            # wave's first pair runs inline through store.load, so start
            # its reads now.  (Pooled pairs read the files in their own
            # processes; prefetching here would not reach them.)
            if store.prefetch is not None:
                predicted = scheduler.peek_wave(max(1, width), self._planner)
                if predicted:
                    for index in set(predicted[0]):
                        store.prefetch_schedule(store.partitions[index])
            if trace.enabled:
                trace.end(
                    "iteration", wave_start,
                    iteration=stats.waves, pairs=len(wave),
                )
            if heartbeat is not None:
                heartbeat.maybe_beat(stats, store, scheduler)

    def _split_oversized(self, touched) -> None:
        """Serial between-wave repartitioning (the store resets both
        halves' arrival logs: a split moves edges between partitions)."""
        store = self.store
        for index in sorted(touched):
            part = store.partitions[index]
            if not store.needs_split(part):
                continue
            cols = store.load(part)
            while store.needs_split(part):
                part, cols, new_part, _new_cols = store.split(part, cols)
                if new_part is None:
                    break
                if self._hub is not None:
                    # Both halves changed identity; retire any published
                    # segment so the next stage republishes fresh.
                    self._hub.invalidate(part.index)
                    self._hub.invalidate(new_part.index)
