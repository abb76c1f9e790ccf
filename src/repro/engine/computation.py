"""Edge-pair-centric, constraint-guided transitive closure (paper §4.2-4.3).

The engine repeatedly loads a pair of partitions, joins consecutive edges
``x -> y`` and ``y -> z`` whose labels compose under the grammar, merges
their interval-sequence path encodings, checks the merged constraint's
satisfiability (through the memoisation caches), and inserts the
transitive edge.  New edges owned by unloaded partitions wait in memory
as those partitions' pending rows until their next load; oversized
partitions are split eagerly.  A pair becomes eligible again whenever
either partition gained edges since its last visit, and the computation
stops when no pair is eligible -- the fixpoint "no new edges can be
found".

Visits are *semi-naive* (:meth:`GraphEngine._pair_body`, the one pair
drain).  A visit composes every new edge both as a left operand (the
frontier drain) and as a right operand (against a per-visit reverse
index of the in-edges that can join inside the pair), so one visit
reaches in-pair closure and the pair is marked at its *post*-visit
versions.  What a visit seeds with is planned per *cell* -- left
operands held by one partition, join vertices owned by the other (or
the same) -- by the phase's :class:`~repro.engine.scheduling.DeltaLog`:
a cell never closed seeds its joinable edges, a closed one just the
edges that arrived since, and a pair none of whose cells has work is
retired without being loaded.  Which compositions are retried never
changes the fixpoint (the closure is a terminating, confluent rewrite),
only the work.

The inner loop runs entirely on interned integer ids: partitions are
:class:`~repro.engine.columnar.EdgeColumns` (sorted ``array('q')``
columns plus an insert overlay), every path encoding is hash-consed to a
dense id by the engine's :class:`~repro.engine.columnar.EncodingTable`,
and the frontier drain is a merge-join (``engine/kernel.py``) -- each
round sorts the pending left operands by their join vertex and probes
the right-hand sorted source runs once per distinct vertex instead of
once per edge.  Encoding merges, reversals, label compositions, and
feasibility verdicts are all memoised by id, so the hot path compares
machine ints where it used to hash variable-length tuples.  Ids are
what partition files hold; a durable workdir carries the table that
defines them (its encoding log).
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field

from repro.cfet import encoding as enc_mod
from repro.cfet.icfet import Icfet
from repro.engine import checkpoint as ckpt
from repro.engine import kernel as kernel_mod
from repro.engine import serialize
from repro.engine.columnar import ROW_BYTES, EncodingTable
from repro.engine.partition import Partition, PartitionStore
from repro.engine.scheduling import DeltaLog, PairScheduler
from repro.engine.stats import EngineStats
from repro.faults import resolve_plan
from repro.obs.trace import TraceRecorder
from repro.grammar.cfg_grammar import ComposeContext, Grammar
from repro.graph.model import ProgramGraph
from repro.smt import Result, Solver

#: Caps on the per-engine id-keyed memo tables (entries are a few
#: machine words each, so these allow tens of MB at most); they are
#: plain dicts that stop accepting writes when full.  The verdict store
#: has no cap: it is one byte per interned encoding (DESIGN §7).
MERGE_MEMO_CAP = 500_000
FORM_PIECES_CAP = 500_000

#: Verdict-store bytes (0 = not yet known).
FEASIBLE = 2
INFEASIBLE = 1


@dataclass
class EngineOptions:
    """Engine tuning knobs; defaults suit test-sized workloads."""

    # None = scratch: a temp directory created only if partitions have
    # to leave memory, written without fsync, removed with the result.
    workdir: str | None = None
    memory_budget: int = 64 * 1024 * 1024
    witness_cap: int = 3  # max distinct encodings kept per (src, dst, label)
    enable_cache: bool = True
    # Ablation switch: with path sensitivity off, every composition is
    # considered feasible (no constraint decoding or solving), matching a
    # purely grammar-guided Graspan-style closure.
    path_sensitive: bool = True
    # Observability (repro.obs).  ``trace`` is the run's TraceRecorder,
    # the one timer every span of the run records into (None: the
    # engine makes one that keeps span times and no Chrome events);
    # ``heartbeat`` prints a progress line on stderr every N seconds.
    trace: object = None
    heartbeat: float | None = None
    # Resource telemetry (repro.obs.profile): a ResourceSampler whose
    # background thread records gauge timeseries (RSS, cache occupancy,
    # eligible pairs, GC pauses).  The engine binds its providers
    # during a run.  None = profiling off, and -- like the rest of the
    # observability stack -- off costs nothing and adds nothing to the
    # run report.
    sampler: object = None
    # Fault tolerance (DESIGN.md §11).  Checkpoint manifests are written
    # after every processed pair when ``workdir`` is explicit -- a temp
    # workdir cannot be pointed at again, so checkpointing is skipped
    # (and costs nothing) there.  ``resume`` restarts a killed run from
    # ``workdir``'s last manifest; ``max_retries`` bounds how often a
    # pair whose partition load raised CorruptPartition is retried
    # before it degrades to a warning; ``fault_plan`` is a
    # repro.faults.FaultPlan (or its spec string) injecting
    # deterministic failures for tests and smoke runs.
    resume: bool = False
    max_retries: int = 2
    fault_plan: object = None


@dataclass
class EngineResult:
    """Outcome of one engine run.  Edges stream out of the run's
    partition store on demand: resident partitions as they are, the
    rest loaded from the workdir one at a time.  The store holds every
    edge, input ones included: ``graph`` gave its edge map up to it and
    keeps only the vertex and label tables and the meta."""

    stats: EngineStats
    store: PartitionStore
    graph: ProgramGraph  # its vertex/label tables and meta; no edges
    #: ``{span name: (self_s, incl_s, calls)}`` of the closure window:
    #: the ``closure`` span and everything that ran inside it.
    closure_spans: dict = field(default_factory=dict)
    _finalizer: object = None

    def own_workdir(self, workdir: str) -> None:
        """Delete ``workdir`` when this result is garbage-collected (or
        :meth:`cleanup` is called)."""
        import weakref

        self._finalizer = weakref.finalize(
            self, shutil.rmtree, workdir, ignore_errors=True
        )

    def cleanup(self) -> None:
        if self._finalizer is not None:
            self._finalizer()

    def iter_edges(self):
        """Yield ``(src, dst, label_tuple, encoding)`` for all final edges."""
        labels = self.graph.labels
        for src, dst, label_id, encoding in self.store.iter_all_edges():
            yield src, dst, labels.lookup(label_id), encoding

    def edges_with_label(self, label: tuple):
        label_id = self.graph.labels.get(label)
        if label_id is None:
            return
        for src, dst, lid, encoding in self.store.iter_all_edges():
            if lid == label_id:
                yield src, dst, encoding

    def collect_by_label(self, predicate):
        """``{(src, dst, label): set[encoding]}`` for labels passing the
        predicate.  Loads matching edges into memory."""
        out: dict = {}
        labels = self.graph.labels
        for src, dst, label_id, encoding in self.store.iter_all_edges():
            label = labels.lookup(label_id)
            if predicate(label):
                out.setdefault((src, dst, label), set()).add(encoding)
        return out


class GraphEngine:
    """Runs one analysis (one grammar) over one program graph.

    Edges carry interval-sequence encodings.  The paper's Table-5 string
    baseline (:class:`repro.baselines.string_constraints.
    StringConstraintEngine`) is a subclass that overrides the encoding
    hooks and these two attributes, which the checkpoint config digest
    and the root-result keys name.
    """

    constraint_mode = "interval"
    max_string_bytes = 1 << 20

    def __init__(
        self,
        icfet: Icfet,
        grammar: Grammar,
        options: EngineOptions | None = None,
        solver: Solver | None = None,
        phase: str = "",
    ):
        self.icfet = icfet
        self.grammar = grammar
        self.options = options or EngineOptions()
        self.solver = solver or Solver()
        # Pipeline phase label ("alias", "dataflow"); with an explicit
        # workdir each phase runs in its own subdirectory so partition
        # files and checkpoint manifests never collide across phases.
        self.phase = phase
        # Normalise the fault plan once and write it back, so the two
        # pipeline phases (which share one EngineOptions) hold the same
        # armed plan with its once-per-run latches.
        self.faults = resolve_plan(self.options.fault_plan)
        self.options.fault_plan = self.faults
        self.stats = EngineStats()
        self.trace = self.options.trace or TraceRecorder(chrome=False)
        self._heartbeat = None
        # All id-keyed memo tables below live and die with the
        # EncodingTable that defines the ids.
        self._enc = EncodingTable()
        # The paper's memoisation cache, indexed by encoding id: one
        # byte per id (0 unknown, else FEASIBLE or INFEASIBLE), and the
        # sorted id tuple of a grammar's multi-encoding query -> verdict.
        self._verdicts = bytearray()
        self._multi_verdicts: dict = {}
        # Grammar.compose_key(...) -> composed label ids.
        self._compose_memo: dict = {}
        self._merge_memo: dict = {}  # (enc id, enc id) -> enc id | None
        self._reverse_memo: dict = {}  # enc id -> enc id
        self._rel_src_memo: dict = {}  # label id -> bool
        self._rel_tgt_memo: dict = {}  # label id -> bool
        self._derived_memo: dict = {}  # label id -> ((label id, rev), ...)
        # The canonical-form verdict memo and the per-element pieces
        # its structural keys are stitched from.
        self._form_memo: dict = {}  # structural form key -> verdict
        self._pieces = enc_mod.FormPieces(FORM_PIECES_CAP)
        # The two regions every composition may enter: leaf spans, so
        # timing them allocates nothing per call.
        self._merge_span = self.trace.leaf("enc-merge", cat="encode")
        self._form_key_span = self.trace.leaf("form-key", cat="encode")
        # Semi-naive state: the phase's arrival log (every edge inserted
        # into a loaded partition is recorded there), and the current
        # visit's reverse index (join vertex -> relevant-source in-edges
        # ``(src, label id, enc id)``) and pending right operands, both
        # kept live by _insert.
        self._log = None
        self._pair_in_index: dict = {}
        self._pair_rhs: list = []
        # Fault-tolerance state: where checkpoint manifests go (None =
        # checkpointing off), the manifest being resumed from, the live
        # scheduler (its frontier rides in every manifest), and the
        # partitions declared unrecoverable.
        self._ckpt_dir: str | None = None
        self._resume_manifest: dict | None = None
        self._scheduler_seed: dict | None = None
        self._scheduler = None
        self._quarantined_parts: set = set()

    # -- public API ----------------------------------------------------------

    def run(self, graph: ProgramGraph) -> EngineResult:
        workdir = self.options.workdir
        scratch = workdir is None
        if scratch:
            # Only a name (unguessable, like mkdtemp's): the store makes
            # the directory when the first partition has to leave
            # memory, so an in-budget closure touches no disk at all.
            workdir = os.path.join(
                tempfile.gettempdir(), f"grapple_{os.urandom(8).hex()}"
            )
        else:
            if self.phase:
                workdir = os.path.join(workdir, self.phase)
            os.makedirs(workdir, exist_ok=True)
        try:
            result = self._run(graph, workdir)
        except BaseException:
            if scratch:
                shutil.rmtree(workdir, ignore_errors=True)
            raise
        if scratch:
            # Evicted partitions are read back from the directory; tie
            # its lifetime to the result object.
            result.own_workdir(workdir)
        return result

    # -- internals -------------------------------------------------------------

    def _run(self, graph: ProgramGraph, workdir: str) -> EngineResult:
        stats = self.stats
        trace = self.trace
        if self.options.heartbeat:
            from repro.obs.report import Heartbeat

            self._heartbeat = Heartbeat(self.options.heartbeat)
        # Once-per-run fault latches live beside the *base* workdir so
        # one plan spans both pipeline phases; a fresh run re-arms them,
        # --resume keeps the faults that crashed the original tripped.
        latch_base = self.options.workdir or workdir
        self.faults.arm(
            os.path.join(latch_base, ".faults"),
            reset=not self.options.resume,
        )
        # Checkpointing is tied to an explicit workdir: a temp dir can't
        # be pointed at again, so manifests there would be dead weight.
        self._ckpt_dir = workdir if self.options.workdir is not None else None
        manifest = None
        if self._ckpt_dir is not None and self.options.resume:
            manifest, reason = ckpt.read_manifest(self._ckpt_dir)
            if manifest is None:
                # Not an error (a kill before the first checkpoint looks
                # like this), but never silent: the run below starts
                # over and clears the directory's engine files.
                print(
                    f"repro: no usable checkpoint in {self._ckpt_dir}"
                    f" ({reason}); starting fresh",
                    file=sys.stderr,
                )
        self._graph = graph
        with trace.span("engine-init", phase=self.phase):
            store = PartitionStore(
                workdir, self.options.memory_budget, stats,
                table=self._enc, trace=trace,
                faults=self.faults,
                durable=self.options.workdir is not None,
            )
            if manifest is not None:
                # Refuse a resume that would not continue the original
                # run, then adopt its partitions, frontier, and stats.
                # The files hold the derived edges already, and validate
                # interns the manifest's labels in id order: nothing is
                # seeded.
                ckpt.validate(manifest, ckpt.config_digest(self), graph)
                ckpt.restore_encodings(manifest, store)
                ckpt.restore_store(manifest, store)
                ckpt.restore_stats(manifest, stats)
                self._scheduler_seed = ckpt.restored_last_seen(manifest)
            else:
                if self._ckpt_dir is not None:
                    # Fresh run in a reused directory: stale partition,
                    # encoding-log, temp, or manifest files (and an older
                    # build's delta files) from an earlier run must not
                    # leak into this one.
                    for name in os.listdir(workdir):
                        if (
                            name.endswith((".bin", ".tmp"))
                            or name == ckpt.MANIFEST
                        ):
                            try:
                                os.remove(os.path.join(workdir, name))
                            except OSError:
                                pass
                self._seed_derived(graph)
                stats.edges_before = graph.edge_count()
                stats.vertices = len(graph.vertices)
                # The store takes the edge map; the join index is noted
                # from each source's targets as they move.
                self._log = self._new_log()
                store.initialize(graph.edges, len(graph.vertices),
                                 note_target=self._log.note_target)
            # From here on the store holds every input edge (a resume's
            # files hold them and what was derived from them): the graph
            # keeps only its vertex and label tables and its meta.
            graph.edges.clear()
        self._store = store
        # Telemetry providers for this phase: the sampler thread (started
        # idempotently) polls these at its cadence; they are unbound
        # below before the store is torn down.
        sampler = self.options.sampler
        if sampler is not None:
            sampler.bind("partition_cache_occupancy", store.cache_occupancy)
            sampler.bind(
                "eligible_pairs",
                lambda: (
                    self._scheduler.eligible_count()
                    if self._scheduler is not None else None
                ),
            )
            sampler.start()
        self._resume_manifest = manifest
        self._ctx = ComposeContext(
            feasible=self._feasible_with, vertex=graph.vertices.lookup
        )
        self._compose_key = self.grammar.compose_key

        resumed_complete = manifest is not None and manifest["complete"]
        window = trace.window()
        try:
            with trace.span("closure", partitions=len(store.partitions)):
                # A complete manifest says this phase already finished.
                if not resumed_complete:
                    self._serial_loop()
        finally:
            # The context holds the bound ``self._feasible_with``: a cycle
            # through the engine that would keep it and every memo table
            # alive until a cycle collection (DESIGN §17).
            self._ctx = None
            if sampler is not None:
                # Capture the phase's final state, then detach providers
                # before the store they close over is torn down (the CLI
                # owns the thread's lifetime across both phases).
                sampler.sample_once()
                sampler.unbind("partition_cache_occupancy")
                sampler.unbind("eligible_pairs")
        closure_spans = window.spans()

        with trace.span("engine-settle", phase=self.phase):
            store.settle()
            stats.edges_after = store.total_edges()
            stats.final_partitions = len(store.partitions)
            stats.encodings = len(self._enc)
            if not resumed_complete:
                self._write_checkpoint(complete=True)
        return EngineResult(
            stats=stats, store=store, graph=graph, closure_spans=closure_spans
        )

    def _write_checkpoint(self, complete: bool = False) -> None:
        """Flush the store and write the resume manifest (no-op when
        checkpointing is off).  The manifest goes last and atomically,
        so it never describes state that is not yet durable."""
        if self._ckpt_dir is None:
            return
        store = self._store
        with self.trace.span("checkpoint", cat="fault", complete=complete):
            store.flush()
            last_seen = (
                self._scheduler.last_seen if self._scheduler is not None
                else {}
            )
            manifest = ckpt.write_manifest(
                self._ckpt_dir, phase=self.phase or "closure",
                config=ckpt.config_digest(self), store=store,
                last_seen=last_seen, stats=self.stats, graph=self._graph,
                complete=complete,
            )
            store.committed = {part.path for part in store.partitions}
            # With the manifest durable, anything it does not reference
            # is superseded garbage (torn-write temps, repartition
            # orphans); a long-running workdir would otherwise grow
            # monotonically.
            self.stats.checkpoint_files_pruned += ckpt.prune_workdir(
                self._ckpt_dir, manifest
            )
        self.stats.checkpoints_written += 1
        spec = self.faults.fire("checkpoint")
        if spec is not None and spec.mode == "kill_run":
            # Injected whole-run crash, *after* the manifest is durable:
            # a --resume of this workdir must pick up right here.
            self.faults.kill_self()

    def _new_log(self) -> DeltaLog:
        return DeltaLog(
            self._rel_src_id, self._rel_tgt_id,
            cap_rows=max(1, self.options.memory_budget // 2 // ROW_BYTES),
        )

    def _open_log(self) -> DeltaLog:
        """Attach the phase's arrival log to the store.  A fresh run's
        join index was noted as :meth:`PartitionStore.initialize` took
        the input edges; restored partitions hold input *and* derived
        edges, so a resume seeds it from the files."""
        store = self._store
        log = self._log
        if self._resume_manifest is not None:
            log = self._new_log()
            for part in store.partitions:
                log.reset(part.index, store.load(part))
        self._log = store.log = log
        return log

    def _close_log(self) -> None:
        self._log = self._store.log = None

    def _mark_visited(self, pair, closed: bool = True) -> None:
        """A visit reaches in-pair closure, so the pair's own insertions
        cannot make it eligible again: record its *post*-visit versions.
        When the visit (or the plan that retired the pair) closed the
        pair's four cells, move their cursors -- the pair's and both
        intra cells' -- past its edges; a quarantined or retry-exhausted
        pair closed nothing, not even its healthy partner's intra cell."""
        scheduler = self._scheduler
        scheduler.mark_processed(pair, scheduler.captured_versions(pair))
        if closed:
            i, j = pair
            self._log.advance((i, i))
            if j != i:
                self._log.advance(pair)
                self._log.advance((j, j))

    def _retire_if_dead(self, pair) -> bool:
        """Retire a quarantined pair, or one whose plan proves every
        cell workless, without loading it.  True when retired."""
        quarantined = self._quarantined_parts
        if quarantined and (pair[0] in quarantined or pair[1] in quarantined):
            # Already warned at the partition level.
            self._mark_visited(pair, closed=False)
            return True
        if self._log.plan(self._store.partitions, pair):
            return False
        self.stats.pairs_skipped += 1
        self._mark_visited(pair)
        return True

    def _serial_loop(self) -> None:
        stats = self.stats
        store = self._store
        trace = self.trace
        heartbeat = self._heartbeat
        scheduler = PairScheduler(store)
        self._scheduler = scheduler
        if self._scheduler_seed:
            scheduler.restore(self._scheduler_seed)
        self._open_log()
        try:
            while True:
                pair = scheduler.next_pair()
                if pair is None:
                    break
                if self._retire_if_dead(pair):
                    continue
                with trace.span(
                    "iteration", iteration=stats.pairs_processed + 1,
                    pair=f"{pair[0]},{pair[1]}",
                ):
                    closed = self._attempt_pair(pair)
                    self._mark_visited(pair, closed)
                    stats.pairs_processed += 1
                    stats.iterations = stats.pairs_processed
                    self._write_checkpoint()
                if heartbeat is not None:
                    heartbeat.maybe_beat(stats, store, scheduler)
        finally:
            self._close_log()

    # -- retry / quarantine ------------------------------------------------------

    def _attempt_pair(self, pair) -> bool:
        """Process one pair, retrying across :class:`CorruptPartition`
        (rebuilding damaged partitions from their best surviving copy)
        and degrading to a per-pair warning when retries run out.  True
        when the visit completed."""
        if self._quarantined_parts and (
            pair[0] in self._quarantined_parts
            or pair[1] in self._quarantined_parts
        ):
            return False  # already warned at the partition level
        attempt = 0
        while True:
            try:
                self._process_pair(*pair)
                return True
            except serialize.CorruptPartition as exc:
                if attempt >= self.options.max_retries:
                    self._quarantine_pair(pair, exc)
                    return False
                attempt += 1
                self._recover_pair(pair, exc, attempt)

    def _recover_pair(self, pair, exc, attempt: int) -> None:
        """Before a retry: probe the pair's partitions and rewrite any
        whose file is unreadable from the resident cached copy or the
        torn rename's temp file (:meth:`PartitionStore.rebuild`)."""
        store = self._store
        self.stats.retries += 1
        with self.trace.span(
            "retry", cat="fault", pair=f"{pair[0]},{pair[1]}",
            attempt=attempt,
        ):
            for index in set(pair):
                part = store.partitions[index]
                try:
                    store.load(part)
                except serialize.CorruptPartition:
                    if not store.rebuild(part):
                        self._quarantine_partition(part, exc)

    def _quarantine_partition(self, part, exc) -> None:
        if part.index in self._quarantined_parts:
            return
        self._quarantined_parts.add(part.index)
        self.stats.partitions_quarantined += 1
        print(
            f"grapple: partition {part.index} is unrecoverable and was"
            f" quarantined (its pairs are skipped): {exc}",
            file=sys.stderr,
        )

    def _quarantine_pair(self, pair, exc) -> None:
        self.stats.pairs_quarantined += 1
        print(
            f"grapple: giving up on partition pair {pair[0]},{pair[1]}"
            f" after {self.options.max_retries} retries: {exc}",
            file=sys.stderr,
        )

    def _seed_derived(self, graph: ProgramGraph) -> None:
        """Apply grammar derivations to the initial edges (e.g. flowsTo
        from new, and its reversal)."""
        pending = list(graph.iter_edges())
        while pending:
            src, dst, label_id, encoding = pending.pop()
            label = graph.labels.lookup(label_id)
            for derived_label, rev in self.grammar.derived(label):
                if rev:
                    new_edge = (dst, src, derived_label, enc_mod.reverse(encoding))
                else:
                    new_edge = (src, dst, derived_label, encoding)
                if graph.add_edge(*new_edge):
                    pending.append(
                        (
                            new_edge[0],
                            new_edge[1],
                            graph.labels.intern(new_edge[2]),
                            new_edge[3],
                        )
                    )

    # -- label/encoding id helpers ---------------------------------------------

    def _rel_src_id(self, label_id: int) -> bool:
        memo = self._rel_src_memo
        value = memo.get(label_id)
        if value is None:
            value = memo[label_id] = self.grammar.relevant_source(
                self._graph.labels.lookup(label_id)
            )
        return value

    def _rel_tgt_id(self, label_id: int) -> bool:
        memo = self._rel_tgt_memo
        value = memo.get(label_id)
        if value is None:
            value = memo[label_id] = self.grammar.relevant_target(
                self._graph.labels.lookup(label_id)
            )
        return value

    def _derived_ids(self, label_id: int):
        memo = self._derived_memo
        value = memo.get(label_id)
        if value is None:
            labels = self._graph.labels
            value = memo[label_id] = tuple(
                (labels.intern(derived_label), rev)
                for derived_label, rev in self.grammar.derived(
                    labels.lookup(label_id)
                )
            )
        return value

    def _merge_ids(self, e1: int, e2: int):
        """Memoised encoding merge by id; None = overflow (dropped)."""
        key = (e1, e2)
        memo = self._merge_memo
        if key in memo:
            return memo[key]
        table = self._enc
        with self._merge_span:
            merged = self._merge_encodings(table.decode(e1), table.decode(e2))
        result = None if merged is None else table.intern(merged)
        if len(memo) < MERGE_MEMO_CAP:
            memo[key] = result
        return result

    def _reverse_id(self, eid: int) -> int:
        memo = self._reverse_memo
        result = memo.get(eid)
        if result is None:
            with self.trace.span("enc-reverse", cat="encode"):
                reversed_enc = self._reverse_encoding(self._enc.decode(eid))
            result = memo[eid] = self._enc.intern(reversed_enc)
        return result

    # -- pair processing ---------------------------------------------------------

    def _process_pair(self, i: int, j: int) -> None:
        """Run one pair's drain in a ``pair-compute`` span, which feeds
        the pair latency and edge-yield histograms; the loads, encoding
        and solving inside it are spans of their own."""
        stats = self.stats
        edges_before = stats.new_edges
        with self.trace.span("pair-compute", cat="pair", pair=f"{i},{j}") as span:
            self._pair_body(i, j)
            span.args["new_edges"] = stats.new_edges - edges_before

    def _pair_body(self, i: int, j: int) -> None:
        """Semi-naive visit of one partition pair.

        The visit keeps a reverse index of the relevant-source in-edges
        whose destination lies inside the pair -- the only edges that
        can be a left operand here -- and composes every edge that is
        new to the pair twice: as a *left* operand through the frontier
        drain (``kernel.drain``: sort by join vertex, probe the
        right-hand source run once per vertex), and as a *right* operand
        against the reverse index, which catches the old-left x
        new-right compositions a left-only drain would leave to a
        second visit.  One visit therefore reaches in-pair closure.

        What is "new to the pair" is planned per cell ``(p, q)`` -- left
        operands ``p`` holds, join vertices ``q`` owns -- by
        :meth:`DeltaLog.plan`.  A fully seeded cell (never closed, or an
        outgrown log was reset since) seeds every joinable left, as left
        operands only: the drain meets every right operand already
        present.  A closed cell seeds just the edges the log recorded
        past its cursor, each left through the drain and each right
        against the lefts ``p`` holds.  Edges
        the visit inserts are added to the frontier, the reverse index
        and the right-operand queue by :meth:`_insert`.
        """
        store = self._store
        parts = {i: store.partitions[i]}
        loaded = {i: store.load(parts[i])}
        if j != i:
            parts[j] = store.partitions[j]
            loaded[j] = store.load(parts[j])
        plan = self._log.plan(store.partitions, (i, j))
        full = {cell for cell, seed in plan.items() if seed is None}
        if len(full) < len(plan):
            self.stats.pairs_delta_seeded += 1
        dirty: set = set()
        outbound: dict = {}
        rel_src = self._rel_src_id
        rel_memo = self._rel_src_memo
        # The pair's vertex intervals (they only move once inserts begin).
        lo1, hi1, lo2, hi2 = parts[i].lo, parts[i].hi, parts[j].lo, parts[j].hi

        frontier: list = []
        in_index = self._pair_in_index = {}
        rhs = self._pair_rhs = []
        for p, cols in loaded.items():
            seed1, seed2 = (p, i) in full, (p, j) in full
            for row in cols.iter_rows():
                dst = row[1]
                if lo1 <= dst < hi1:
                    seed = seed1
                elif lo2 <= dst < hi2:
                    seed = seed2
                else:
                    continue
                rel = rel_memo.get(row[2])
                if rel is None:
                    rel = rel_src(row[2])
                if rel:
                    lefts = in_index.get(dst)
                    if lefts is None:
                        lefts = in_index[dst] = []
                    lefts.append((row[0], row[2], row[3]))
                    if seed:
                        frontier.append(row)
        seeded: set = set()  # lefts seeded from a cursor
        holders: dict = {}  # right seeded from a cursor -> its cells' p
        for (p, _q), seed in plan.items():
            if seed is not None:
                lefts, rights = seed
                frontier.extend(lefts)
                seeded.update(lefts)
                for row in rights:
                    holders.setdefault(row, []).append(p)
        seeded_rhs = list(holders.items())

        while frontier or rhs or seeded_rhs:
            if frontier:
                kernel_mod.drain(
                    self, loaded, parts, outbound, dirty, frontier
                )
            if rhs:
                # Inserted by this visit: a left may have drained before
                # it appeared, so it meets every left in the pair
                # (duplicate attempts dedup away on insert).
                src2, dst2, label2_id, enc2 = rhs.pop()
                for src1, label1_id, enc1 in list(in_index.get(src2, ())):
                    self._compose_edges(
                        src1, src2, label1_id, enc1, dst2, label2_id, enc2,
                        loaded, parts, outbound, dirty, frontier,
                    )
            elif seeded_rhs:
                # Seeded from a cursor: it meets only the lefts of the
                # cells that seeded it, and no left seeded itself -- that
                # one met every present right in the drain.
                (src2, dst2, label2_id, enc2), cells = seeded_rhs.pop()
                only = parts[cells[0]] if len(cells) < len(parts) else None
                for src1, label1_id, enc1 in list(in_index.get(src2, ())):
                    if (src1, src2, label1_id, enc1) in seeded or (
                        only is not None and not only.owns(src1)
                    ):
                        continue
                    self._compose_edges(
                        src1, src2, label1_id, enc1, dst2, label2_id, enc2,
                        loaded, parts, outbound, dirty, frontier,
                    )

        self._flush_outbound(outbound)
        self._finalize_pair(loaded, parts, dirty)

    def _finalize_pair(self, loaded, parts, dirty) -> None:
        """Persist the pair's loaded partitions (splitting any
        still-oversized ones; split() persists both halves itself)."""
        store = self._store
        for index in list(loaded):
            part, cols = parts[index], loaded[index]
            was_split = False
            while store.needs_split(part):
                part, cols, new_part, _new_cols = store.split(part, cols)
                if new_part is None:
                    break
                was_split = True
            parts[index], loaded[index] = part, cols
            if index in dirty and not was_split:
                store.save(part, cols)

    def _compose_edges(
        self, src, dst, label1_id, enc1, dst2, label2_id, enc2,
        loaded, parts, outbound, dirty, frontier,
    ) -> None:
        stats = self.stats
        stats.compositions_tried += 1
        new_label_ids = self._compose_labels(
            src, dst, label1_id, enc1, dst2, label2_id, enc2
        )
        if not new_label_ids:
            return
        merged = self._merge_ids(enc1, enc2)
        if merged is None:
            stats.encoding_overflow_dropped += 1
            return
        for new_label_id in new_label_ids:
            self._insert(
                src, dst2, new_label_id, merged, loaded, parts, outbound,
                dirty, frontier, check=True,
            )

    def _compose_labels(
        self, src, dst, label1_id, enc1, dst2, label2_id, enc2
    ):
        """Label ids produced by composing the two edges' labels.

        The grammar's :meth:`~repro.grammar.cfg_grammar.Grammar.
        compose_key` names what the result depends on; a keyed result
        is memoised on that key (an int-tuple probe instead of
        composing), and only an unkeyed step -- one whose result reads
        the encodings -- calls the grammar, with the edges' encoding
        ids (:class:`~repro.grammar.cfg_grammar.ComposeContext`).
        """
        key = self._compose_key(src, dst, dst2, label1_id, label2_id)
        if key is not None:
            memo = self._compose_memo.get(key)
            if memo is not None:
                return memo
        labels = self._graph.labels
        edge1 = (src, dst, labels.lookup(label1_id), enc1)
        edge2 = (dst, dst2, labels.lookup(label2_id), enc2)
        result = tuple(
            labels.intern(label)
            for label in self.grammar.compose(edge1, edge2, self._ctx)
        )
        if key is not None:
            self._compose_memo[key] = result
        return result

    def _insert(
        self, src, dst, label_id, eid, loaded, parts, outbound, dirty,
        frontier, check: bool,
    ) -> None:
        stats = self.stats
        # Find where the edge lives: a loaded partition or the outbound
        # buffer of an unloaded one.
        cols = None
        owner_index = None
        for index, part in parts.items():
            if part.owns(src):
                owner_index = index
                cols = loaded[index]
                break
        if cols is None:
            target = self._store.partition_of(src)
            slot = (
                outbound.setdefault(target.index, {})
                .setdefault(src, {})
                .setdefault((dst, label_id), set())
            )
            if eid in slot:
                return
            if len(slot) >= self.options.witness_cap:
                return
            if check and not self._feasible_ids((eid,)):
                stats.infeasible_dropped += 1
                return
            slot.add(eid)
            stats.new_edges += 1
        else:
            slot = cols.admit(src, dst, label_id, eid, self.options.witness_cap)
            if slot is None:
                return
            if check and not self._feasible_ids((eid,)):
                stats.infeasible_dropped += 1
                return
            cols.add(src, dst, label_id, slot, eid)
            stats.new_edges += 1
            self._log.record(owner_index, src, dst, label_id, eid)
            owner = parts[owner_index]
            dirty.add(owner_index)
            owner.version += 1
            owner.edge_count += 1
            owner.byte_estimate += self._enc.row_bytes(eid)
            # New to the pair: a left operand if it can join inside the
            # pair at all, and a right operand for the in-edges of its
            # source that may already have drained.
            if self._rel_src_id(label_id):
                for part in parts.values():
                    if part.owns(dst):
                        frontier.append((src, dst, label_id, eid))
                        self._pair_in_index.setdefault(dst, []).append(
                            (src, label_id, eid)
                        )
                        break
            if self._rel_tgt_id(label_id):
                self._pair_rhs.append((src, dst, label_id, eid))
            # Eager repartitioning (§4.3): split as soon as the loaded
            # partition's edge data exceeds the threshold, not at the end
            # of the iteration.
            if self._store.needs_split(owner):
                self._split_loaded(owner_index, loaded, parts, outbound, dirty)
        # Derived edges (e.g. flowsToBar from flowsTo).
        for derived_label_id, rev in self._derived_ids(label_id):
            if rev:
                self._insert(
                    dst, src, derived_label_id, self._reverse_id(eid),
                    loaded, parts, outbound, dirty, frontier, check=False,
                )
            else:
                self._insert(
                    src, dst, derived_label_id, eid, loaded, parts, outbound,
                    dirty, frontier, check=False,
                )

    # -- encoding hooks (overridden by the string baseline) -------------------

    def _merge_encodings(self, enc1, enc2):
        return enc_mod.merge(enc1, enc2, self.icfet)

    def _reverse_encoding(self, encoding):
        return enc_mod.reverse(encoding)

    def _split_loaded(self, index, loaded, parts, outbound, dirty) -> None:
        """Mid-iteration split of a loaded partition that outgrew the
        budget: the left half stays loaded, the right half goes to disk
        (a new partition: its pairs are all unvisited, and the store
        carries each cell's cursor from before this visit to both
        halves, so they seed what arrived since).  Reverse-index
        entries and queued right operands that now point outside the
        pair stay behind -- composing them still derives valid edges,
        which go out through the outbound buffer."""
        # Buffered edges were routed by the old boundaries; hand them over
        # first.
        self._flush_outbound(outbound)
        outbound.clear()
        part, cols = parts[index], loaded[index]
        left, left_cols, right, _right_cols = self._store.split(part, cols)
        if right is None:
            return
        parts[index] = left
        loaded[index] = left_cols
        dirty.discard(index)  # split() persisted the left half already

    def _flush_outbound(self, outbound) -> None:
        """Hand the edges buffered for unloaded partitions to the store,
        still id-encoded.  Buffers are keyed by owner at buffering time
        and never outlive a boundary change: the only split that can
        happen while they hold edges (:meth:`_split_loaded`) flushes
        them first."""
        store = self._store
        for index, chunk in outbound.items():
            store.append_delta(store.partitions[index], chunk)

    # -- constraint feasibility --------------------------------------------------

    def _feasible_with(self, ids: tuple, encoding: tuple) -> bool:
        """The grammar's feasibility check (``ComposeContext.feasible``):
        the conjunction of the encoding ids ``ids`` and of ``encoding``,
        a path encoding from outside the closure (phase 1's alias
        results).  ``encoding`` is interned here, so the table numbers
        it when the closure first asks about it."""
        if not self.options.path_sensitive:
            return True
        return self._feasible_ids(
            tuple(sorted((*ids, self._enc.intern(encoding))))
        )

    def _feasible_ids(self, ids: tuple) -> bool:
        """One feasibility query: the verdict store (paper §4.3, indexed
        by hash-consed id), then the canonical-form memo, and only then
        solve the form key itself (:func:`repro.cfet.encoding.
        key_literals`): a verdict depends on the key alone."""
        if not self.options.path_sensitive:
            return True
        stats = self.stats
        stats.constraint_queries += 1
        enable_cache = self.options.enable_cache
        if enable_cache:
            if len(ids) == 1:
                verdicts = self._verdicts
                eid = ids[0]
                known = verdicts[eid] if eid < len(verdicts) else 0
                if known:
                    stats.cache_hits += 1
                    return known == FEASIBLE
            else:
                cached = self._multi_verdicts.get(ids)
                if cached is not None:
                    stats.cache_hits += 1
                    return cached
        with self._form_key_span:
            form = self._form_key(ids)
        result = self._form_memo.get(form) if enable_cache else None
        if result is not None:
            # Alpha-equivalent constraint already solved: edges in
            # different scopes share constraint shapes, so this is the
            # common case once the closure warms up.
            stats.group_hits += 1
        else:
            result = self._solve_form(form)
            if enable_cache:
                stats.feasibility_groups += 1
                self._form_memo[form] = result
        if enable_cache:
            if len(ids) == 1:
                verdicts = self._verdicts
                eid = ids[0]
                if eid >= len(verdicts):
                    verdicts.extend(bytes(len(self._enc) - len(verdicts)))
                verdicts[eid] = FEASIBLE if result else INFEASIBLE
            else:
                self._multi_verdicts[ids] = result
        return result

    def _form_key(self, ids: tuple) -> tuple:
        """Structural canonical-form key of the ids' conjunction
        (:func:`repro.cfet.encoding.form_key`): equal keys mean
        alpha-equivalent, hence equisatisfiable, conjunctions.  Interval
        encodings are keyed without being decoded.  Keys are not cached
        per id: the verdict store remembers the answer.
        """
        decode = self._enc.decode
        return enc_mod.form_key(
            [decode(eid) for eid in ids], self.icfet, self._pieces
        )

    def _solve_form(self, form: tuple) -> bool:
        """One solver call on a form key's literals, in an ``smt-solve``
        span (which feeds the solve-latency histogram)."""
        self.stats.constraints_solved += 1
        with self.trace.span("smt-solve", cat="smt") as span:
            literals = enc_mod.key_literals(form, self._pieces)
            result = span.args["sat"] = (
                self.solver.check_literals(literals) is Result.SAT
            )
        return result
