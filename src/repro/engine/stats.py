"""Performance accounting for the engine.

The paper's Figure 9 breaks an execution into four components -- I/O,
constraint encoding/decoding (lookup), SMT solving, and in-memory edge-pair
computation -- summed across all processing threads.  :class:`EngineStats`
collects exactly those, plus the counters behind Tables 3-5.

Every field carries a ``kind`` describing how it aggregates across the
pipeline's phases (:meth:`EngineStats.merge_phase`) and how it is
exported: ``counter`` (sums), ``gauge`` (point-in-time within a phase),
``flag`` (ORs), or ``registry`` (a nested
:class:`~repro.obs.metrics.MetricsRegistry` of histograms).  The
aggregation is derived from this metadata rather than a hand-written
field list, so a newly added counter aggregates correctly by default (a
hand-maintained tuple once silently dropped ``preprocess_time``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields


def stat_field(default=0, kind: str = "counter"):
    """Dataclass field with aggregation metadata (see module docstring)."""
    return field(default=default, metadata={"kind": kind})


@dataclass
class EngineStats:
    io_time: float = stat_field(0.0)
    encode_time: float = stat_field(0.0)
    smt_time: float = stat_field(0.0)
    compute_time: float = stat_field(0.0)
    preprocess_time: float = stat_field(0.0)
    # Total time inside feasibility queries (decode + solve); this is the
    # quantity Table 4 compares with and without memoisation.  It overlaps
    # encode_time/smt_time and is excluded from the Figure 9 breakdown.
    feasibility_time: float = stat_field(0.0)

    iterations: int = stat_field()
    pairs_processed: int = stat_field()
    edges_before: int = stat_field(kind="gauge")
    edges_after: int = stat_field(kind="gauge")
    vertices: int = stat_field(kind="gauge")
    new_edges: int = stat_field()
    compositions_tried: int = stat_field()
    constraints_solved: int = stat_field()  # solver invocations (cache misses)
    # Queries whose constraints were materialised as expressions (every
    # other memo miss was answered from its encodings' structural key).
    constraints_decoded: int = stat_field()
    constraint_queries: int = stat_field()  # all feasibility queries
    cache_hits: int = stat_field()
    infeasible_dropped: int = stat_field()
    encoding_overflow_dropped: int = stat_field()
    repartitions: int = stat_field()
    final_partitions: int = stat_field(kind="gauge")
    # Length of the phase's encoding table when it ended: the table is
    # resident for the whole phase and outside the memory budget's
    # accounting, so this is the measure of what the budget does not see.
    encodings: int = stat_field(kind="gauge")
    timed_out: bool = stat_field(False, kind="flag")
    # Pair scheduling: eligible pairs retired without being loaded
    # because the arrival log's plan gave none of their cells work (no
    # join into the cell, or nothing new since it was closed), and
    # visits in which at least one cell seeded from its cursor instead
    # of every joinable edge.
    pairs_skipped: int = stat_field()
    pairs_delta_seeded: int = stat_field()
    # I/O pipeline: partition loads served from the background reader's
    # parse vs. loads that fell back to a synchronous read, and delta
    # frames appended to partitions' delta files.
    prefetch_hits: int = stat_field()
    prefetch_misses: int = stat_field()
    # Prefetched reads that failed on *corrupt* bytes (CorruptPartition),
    # counted separately from benign misses (version races, cold starts)
    # so real damage is visible and reaches the retry layer.
    prefetch_corrupt: int = stat_field()
    # Prefetched reads that failed on an *unexpected* exception -- a
    # programming error, not an I/O race or corruption.  The error is
    # re-raised on the engine thread after counting; a nonzero value in
    # a completed run means the failure was survived by retry.
    prefetch_errors: int = stat_field()
    spill_frames: int = stat_field()
    spill_bytes: int = stat_field()
    # Partition files written (evictions, checkpoint flushes, rebuilds)
    # and their bytes.  Both 0 means the closure never left memory.
    partition_writes: int = stat_field()
    partition_bytes_written: int = stat_field()
    # Fault tolerance: truncated trailing delta frames dropped on read
    # (benign crash artifacts), interior delta frames discarded on CRC or
    # decode failure (real corruption; the partition's pairs recompute),
    # pair retries, pairs degraded to a warning after retry exhaustion,
    # partitions rebuilt from their resident cached copy, and checkpoint
    # manifests written.
    delta_frames_dropped: int = stat_field()
    delta_frames_corrupt: int = stat_field()
    retries: int = stat_field()
    pairs_quarantined: int = stat_field()
    partitions_rebuilt: int = stat_field()
    partitions_quarantined: int = stat_field()
    checkpoints_written: int = stat_field()
    # Superseded workdir files (folded delta logs, torn-write temps,
    # repartition orphans) garbage-collected after a durable manifest
    # write -- keeps a long-running serve workdir from growing forever.
    checkpoint_files_pruned: int = stat_field()
    # Incremental serve daemon (repro.serve): edits answered, file
    # dependency edges added plus removed by those edits, and
    # accumulated warnings retracted when their stratum re-derived.
    edits_served: int = stat_field()
    edges_rederived: int = stat_field()
    warnings_retracted: int = stat_field()
    # Merge-join frontier drain: rounds processed and distinct join
    # vertices probed against the right-hand sorted runs.
    join_batches: int = stat_field()
    join_probes: int = stat_field()
    # Feasibility by canonical form: distinct constraint forms actually
    # solved, and queries answered by an already-solved form.
    feasibility_groups: int = stat_field()
    group_hits: int = stat_field()
    # Optional histogram registry (solve latency, per-pair compute time and
    # edge yield, prefetch waits).  None unless metrics collection is on --
    # hot paths guard on ``is not None`` so a disabled run pays nothing.
    metrics: object = stat_field(None, kind="registry")

    def __post_init__(self) -> None:
        # Self-time stack for reentrant timing(); not a dataclass field so
        # keyword construction and equality keep their historical shape.
        self._tstack: list[float] = []

    # -- timing ----------------------------------------------------------------

    @contextmanager
    def timing(self, component: str):
        """Attribute the block's *self-time* to ``component``.

        Reentrancy-safe: a nested timing() span's elapsed time is
        subtracted from the enclosing component, so e.g. encode_time
        accrued inside a compute_time block is not double-counted.
        """
        stack = self._tstack
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            child = stack.pop()
            setattr(
                self, component, getattr(self, component) + elapsed - child
            )
            if stack:
                stack[-1] += elapsed

    # -- metrics ---------------------------------------------------------------

    def ensure_metrics(self):
        """Attach (and return) the engine's standard histogram registry."""
        if self.metrics is None:
            from repro.obs.metrics import engine_metrics

            self.metrics = engine_metrics()
        return self.metrics

    def registry_view(self):
        """The full stats as a :class:`~repro.obs.metrics.MetricsRegistry`.

        Scalar fields become counters/gauges by their declared kind,
        derived rates are exported as gauges, and any attached histogram
        registry is folded in.  This is the export surface for
        ``--metrics-json`` and the benchmark reports.
        """
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        for f in fields(self):
            kind = f.metadata["kind"]
            value = getattr(self, f.name)
            if kind == "counter":
                registry.counter(f.name).inc(value)
            elif kind == "gauge":
                registry.gauge(f.name).set(value)
            elif kind == "flag":
                registry.gauge(f.name).set(int(value))
        registry.gauge("cache_hit_rate").set(self.cache_hit_rate)
        registry.gauge("prefetch_hit_rate").set(self.prefetch_hit_rate)
        if self.metrics is not None:
            registry.merge(self.metrics)
        return registry

    # -- derived quantities ----------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        if self.constraint_queries == 0:
            return 0.0
        return self.cache_hits / self.constraint_queries

    @property
    def prefetch_hit_rate(self) -> float:
        total = self.prefetch_hits + self.prefetch_misses
        if total == 0:
            return 0.0
        return self.prefetch_hits / total

    @property
    def total_time(self) -> float:
        return (
            self.io_time + self.encode_time + self.smt_time + self.compute_time
        )

    def breakdown(self) -> dict[str, float]:
        """Fractions of total time per component (Figure 9's series)."""
        total = self.total_time
        if total == 0:
            return {"io": 0.0, "encode": 0.0, "smt": 0.0, "compute": 0.0}
        return {
            "io": self.io_time / total,
            "encode": self.encode_time / total,
            "smt": self.smt_time / total,
            "compute": self.compute_time / total,
        }

    # -- aggregation -----------------------------------------------------------

    def merge_phase(self, other: "EngineStats") -> None:
        """Fold a *completed phase's* stats into a cross-phase total.

        Both sides are final per-phase results, so every numeric field
        aggregates: counters sum, gauges sum (a whole-run edge/vertex
        total is the sum of per-phase totals), flags OR, registries
        merge.  Derived from field metadata -- a newly added field
        aggregates correctly without touching any hand-written list.
        """
        for f in fields(self):
            kind = f.metadata["kind"]
            if kind in ("counter", "gauge"):
                setattr(
                    self, f.name, getattr(self, f.name) + getattr(other, f.name)
                )
            elif kind == "flag":
                setattr(
                    self, f.name, getattr(self, f.name) or getattr(other, f.name)
                )
            elif kind == "registry":
                theirs = getattr(other, f.name)
                if theirs is None:
                    continue
                mine = getattr(self, f.name)
                if mine is None:
                    setattr(self, f.name, theirs.clone())
                else:
                    mine.merge(theirs)
