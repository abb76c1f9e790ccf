"""Counters and gauges of one engine run.

:class:`EngineStats` holds the counters behind Tables 3-5.  Time is not
kept here: every timed region is a span on the run's
:class:`~repro.obs.trace.TraceRecorder`, and the paper's Figure-9
breakdown (I/O, encoding, SMT, computation) is read from the closure
windows of its span table (:func:`repro.obs.report.run_report`).

Every field carries a ``kind`` describing how it aggregates across the
pipeline's phases (:meth:`EngineStats.merge_phase`) and which run-report
section it lands in: ``counter`` (sums), ``gauge`` (point-in-time within
a phase) or ``flag`` (ORs; a 0/1 gauge).  Both follow this metadata
rather than a hand-written field list, so a newly added counter
aggregates correctly by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


def stat_field(default=0, kind: str = "counter"):
    """Dataclass field with aggregation metadata (see module docstring)."""
    return field(default=default, metadata={"kind": kind})


@dataclass
class EngineStats:
    iterations: int = stat_field()
    pairs_processed: int = stat_field()
    edges_before: int = stat_field(kind="gauge")
    edges_after: int = stat_field(kind="gauge")
    vertices: int = stat_field(kind="gauge")
    new_edges: int = stat_field()
    compositions_tried: int = stat_field()
    constraints_solved: int = stat_field()  # solver invocations (cache misses)
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
    # Edges that arrived for a partition outside the store's cache and
    # waited in memory as its pending rows until a load folded them in.
    pending_rows: int = stat_field()
    # Partition files written (evictions, checkpoint flushes, rebuilds)
    # and their bytes.  Both 0 means the closure never left memory.
    partition_writes: int = stat_field()
    partition_bytes_written: int = stat_field()
    # Fault tolerance: pair retries, pairs degraded to a warning after
    # retry exhaustion, partitions rebuilt from their resident cached
    # copy, and checkpoint manifests written.
    retries: int = stat_field()
    pairs_quarantined: int = stat_field()
    partitions_rebuilt: int = stat_field()
    partitions_quarantined: int = stat_field()
    checkpoints_written: int = stat_field()
    # Superseded workdir files (torn-write temps, repartition orphans)
    # garbage-collected after a durable manifest write -- keeps a
    # long-running serve workdir from growing forever.
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

    # -- derived quantities ----------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        if self.constraint_queries == 0:
            return 0.0
        return self.cache_hits / self.constraint_queries

    # -- aggregation -----------------------------------------------------------

    def merge_phase(self, other: "EngineStats") -> None:
        """Fold a *completed phase's* stats into a cross-phase total.

        Both sides are final per-phase results, so every field
        aggregates: counters sum, gauges sum (a whole-run edge/vertex
        total is the sum of per-phase totals), flags OR.  Derived from
        field metadata -- a newly added field aggregates correctly
        without touching any hand-written list.
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
