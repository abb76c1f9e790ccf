"""String-based constraint representation baseline (paper Table 5).

The same systemised engine, but each edge embeds its whole constraint as a
string rather than an interval-sequence encoding.  Strings grow with path
length, so partitions blow past the memory budget and repartition
aggressively; more partitions mean more computational iterations and more
constraint solving.  On the largest subject the paper's version of this
baseline did not terminate within 200 hours -- pass ``time_budget`` to
let the run report a timeout instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

from repro.analysis.pipeline import Grapple, GrappleOptions, GrappleRun
from repro.cfet import encoding as enc_mod
from repro.checkers.fsm import FSM
from repro.engine.computation import GraphEngine
from repro.smt.sexpr import parse_expr, serialize_expr


class _OutOfTime(Exception):
    """Raised out of a pair attempt once the time budget is spent."""


class StringConstraintEngine(GraphEngine):
    """:class:`GraphEngine` whose edges carry their whole constraint as
    one string element ``(("S", text),)``.

    ``max_string_bytes`` drops a composition whose constraint text
    outgrows it (the equivalent of MAX_ELEMENTS for interval encodings).
    ``time_budget`` is wall-clock seconds for the closure: once spent,
    the next pair is not attempted and ``stats.timed_out`` is set.
    """

    constraint_mode = "string"

    def __init__(self, *args,
                 max_string_bytes: int = GraphEngine.max_string_bytes,
                 time_budget: float | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.max_string_bytes = max_string_bytes
        self.time_budget = time_budget
        self._deadline = None

    def _seed_derived(self, graph) -> None:
        """Derive as the interval engine does, then convert every
        payload to its constraint's text."""
        super()._seed_derived(graph)
        for targets in graph.edges.values():
            for key, encodings in targets.items():
                targets[key] = {
                    (("S", serialize_expr(
                        enc_mod.decode_constraint(encoding, self.icfet)
                    )),)
                    for encoding in encodings
                }

    def _serial_loop(self) -> None:
        if self.time_budget is not None:
            self._deadline = time.perf_counter() + self.time_budget
        try:
            super()._serial_loop()
        except _OutOfTime:
            self.stats.timed_out = True

    def _attempt_pair(self, pair) -> bool:
        if self._deadline is not None and time.perf_counter() > self._deadline:
            raise _OutOfTime
        return super()._attempt_pair(pair)

    def _merge_encodings(self, enc1, enc2):
        text = f"(and {enc1[0][1]} {enc2[0][1]})"
        if len(text) > self.max_string_bytes:
            return None
        return (("S", text),)

    def _reverse_encoding(self, encoding):
        return encoding  # constraints are direction-independent

    def _form_key(self, ids: tuple) -> tuple:
        # The text has to be parsed to be keyed; the key is then solved
        # like an interval query's.
        decode = self._enc.decode
        return enc_mod.constraint_form_key(
            [parse_expr(decode(eid)[0][1]) for eid in ids], self._pieces
        )


@dataclass
class StringBaselineResult:
    run: GrappleRun | None
    timed_out: bool
    partitions: int
    iterations: int
    constraints_solved: int
    total_time: float


def run_string_based(
    source: str,
    fsms: list[FSM],
    options: GrappleOptions | None = None,
    time_budget: float | None = None,
) -> StringBaselineResult:
    """Run the full pipeline with string-encoded constraints (each phase
    gets ``time_budget`` seconds of closure)."""
    factory = partial(StringConstraintEngine, time_budget=time_budget)
    run = Grapple(source, fsms, options, engine_factory=factory).run()
    stats = run.stats
    return StringBaselineResult(
        run=run,
        timed_out=stats.timed_out,
        partitions=stats.final_partitions,
        iterations=stats.pairs_processed,
        constraints_solved=stats.constraints_solved,
        total_time=run.total_time,
    )
