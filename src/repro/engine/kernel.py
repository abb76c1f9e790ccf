"""Batched closure kernel: bulk run-intersection, vectorised probes,
and grouped feasibility (DESIGN.md §12).

The scalar frontier drain (:func:`_drain_scalar`, ``--kernel off``)
composes one edge at a time: for every pending left operand it probes
the right-hand partition's sorted source run, walks the rows, composes
labels, merges encodings, and solves each merged constraint the moment
the edge is inserted.  This module replaces that inner loop with a
three-pass batched schedule while reproducing the scalar path *byte for
byte* -- same edges in the same insertion order (the witness cap makes
order semantically significant), same counter totals, same memo
contents:

1. **Bulk run-intersection** -- each round sorts the frontier by join
   vertex once (as before), but the ``[lo, hi)`` runs of *all* the
   round's distinct join vertices in the right-hand sorted ``src``
   column are located in one pass: a single vectorised ``searchsorted``
   per owner partition on the numpy backend, a monotonic low-anchored
   bisect walk on the stdlib backend.  Base columns are immutable
   between compactions (inserts land in the dict overlay), so the
   round's ranges stay valid across in-round inserts; a mid-round
   split replaces the column arrays and is detected by object identity,
   falling back to a fresh per-vertex bisect.
2. **Vectorised dedup/memo probes** -- the target-relevance filter over
   a run becomes one mask application (a numpy boolean gather, or a
   precomputed relevant-label set on the stdlib backend) instead of a
   per-row grammar-memo call, and the compose/merge memos are probed
   with plain dict lookups hoisted out of the engine's method-call
   plumbing.
3. **Grouped feasibility** -- composed candidates are cut into
   ``batch_size`` chunks; each chunk's *certainly-queried* encodings
   (see below) are keyed by canonical form -- structurally, without
   decoding (:func:`repro.cfet.encoding.form_key`) -- one constraint per
   distinct unseen form is decoded and handed to
   :meth:`repro.smt.solver.Solver.check_batch` as one group, and the
   verdicts are parked in ``engine._presolved`` for the insert pass to
   consume.  Forms already proven are short-circuited (``group_hits``).

Both backends produce identical results: the numpy path exists purely
to move per-row Python work into C loops.  The backend is selected at
import time (``--kernel auto``) or forced (``--kernel numpy|stdlib``);
``--kernel off`` keeps the scalar drain.  Either way the engine reaches
the drain through the single :func:`drain` entry point.

**Counter-parity discipline.**  The scalar path interleaves composition
and insertion, so a batched schedule reorders feasibility queries.
Query *totals* still match because (a) grammar-callback queries key the
memo/LRU with multi-encoding tuples while insert-time queries use
single ids -- disjoint key spaces, so reordering cannot turn a hit into
a miss -- and (b) a chunk only pre-solves candidates whose insert-time
query is *certain* to happen and miss every cache: the owner partition
is loaded, the edge is new, its witness slot has room, no earlier
candidate in the chunk touches the same (or a derived) slot, and the
verdict is in neither the id-keyed memo, the tuple-keyed LRU, nor the
pending pre-solve set.  Everything else falls through to the unchanged
lazy path in ``GraphEngine._feasible_solve``.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right

from repro.smt import Result

try:  # the numpy fast path is optional (pyproject extra "fast")
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

BACKENDS = ("auto", "numpy", "stdlib", "off")

#: Minimum chunk size worth the grouped-feasibility bookkeeping: below
#: this the per-candidate eligibility scan costs more than one-by-one
#: lazy solving (which charges the exact same counter totals, so the
#: cutoff is invisible to differential tests).
PRESOLVE_MIN = 24

#: Below this many base rows the numpy gather (fancy indexing plus
#: .tolist()) loses to plain array slicing; both produce the same rows.
NUMPY_MIN_RUN = 48


def resolve_backend(choice: str) -> str | None:
    """Map an ``EngineOptions.kernel`` choice to a backend name.

    Returns ``"numpy"`` or ``"stdlib"`` (None for ``"off"``).  ``auto``
    prefers numpy when it is importable; forcing ``numpy`` without the
    library installed is an error rather than a silent fallback.
    """
    if choice == "off":
        return None
    if choice == "auto":
        return "numpy" if _np is not None else "stdlib"
    if choice == "numpy":
        if _np is None:
            raise RuntimeError(
                "kernel backend 'numpy' requested but numpy is not"
                " installed (pip install repro[fast], or use"
                " --kernel auto/stdlib)"
            )
        return "numpy"
    if choice == "stdlib":
        return "stdlib"
    raise ValueError(f"unknown kernel backend {choice!r} (want one of {BACKENDS})")


# -- per-columns kernel cache --------------------------------------------------


class _ColsCache:
    """Backend views of one :class:`EdgeColumns`' base arrays.

    Valid only while the columns' ``src`` array object is unchanged
    (compaction and splits replace all four arrays wholesale; inserts
    go to the overlay and never touch them) and for one grammar's
    target-relevance function.
    """

    __slots__ = ("src_ref", "grammar_ref", "nsrc", "ndst", "nlabel",
                 "nenc", "mask", "relevant")

    def __init__(self, cols, engine, backend: str) -> None:
        self.src_ref = cols.src
        self.grammar_ref = engine.grammar
        rel_tgt = engine._rel_tgt_id
        if backend == "numpy":
            self.nsrc = _np.frombuffer(cols.src, dtype=_np.int64)
            self.ndst = _np.frombuffer(cols.dst, dtype=_np.int64)
            self.nlabel = _np.frombuffer(cols.label, dtype=_np.int64)
            self.nenc = _np.frombuffer(cols.enc, dtype=_np.int64)
            if self.nlabel.size:
                uniq = _np.unique(self.nlabel).tolist()
                rel = [rel_tgt(label_id) for label_id in uniq]
                if all(rel):
                    self.mask = self.relevant = None
                else:
                    lut = _np.zeros(uniq[-1] + 1, dtype=bool)
                    for label_id, is_rel in zip(uniq, rel):
                        lut[label_id] = is_rel
                    self.mask = lut[self.nlabel]
                    self.relevant = {l for l, r in zip(uniq, rel) if r}
            else:
                self.mask = self.relevant = None
        else:
            self.nsrc = self.ndst = self.nlabel = self.nenc = None
            uniq = set(cols.label)
            relevant = {l for l in uniq if rel_tgt(l)}
            self.mask = None
            self.relevant = None if len(relevant) == len(uniq) else relevant


def _cache_for(engine, cols, backend: str) -> _ColsCache:
    kc = cols._kcache
    if (
        kc is None
        or kc.src_ref is not cols.src
        or kc.grammar_ref is not engine.grammar
    ):
        kc = cols._kcache = _ColsCache(cols, engine, backend)
    return kc


# -- the drain -----------------------------------------------------------------


def drain(engine, loaded, parts, spills, dirty, frontier) -> None:
    """Merge-join drain of one pair's pending left operands.

    Each round takes the whole frontier, sorts it by join vertex (the
    left operand's destination) and walks the distinct join vertices in
    order -- one probe of the right-hand sorted source run per vertex,
    shared by every left operand joining there.  Mutates ``frontier``
    in place (the engine's insert path appends the next round's left
    operands to it) and returns when it is empty.  ``--kernel off``
    takes the scalar loop, every other backend the batched schedule.
    """
    stats = engine.stats
    backend = engine._kernel
    if backend is None:
        _drain_scalar(engine, loaded, parts, spills, dirty, frontier)
        return
    batch_size = max(1, engine.options.batch_size)
    while frontier:
        batch = sorted(frontier, key=_join_vertex)
        del frontier[:]
        stats.join_batches += 1
        plan = _round_plan(engine, loaded, parts, batch, backend)
        at, n = 0, len(batch)
        while at < n:
            dst = batch[at][1]
            end = at + 1
            while end < n and batch[end][1] == dst:
                end += 1
            rows = _group_rows(engine, loaded, parts, plan, dst, backend)
            if rows:
                candidates = _compose_group(engine, batch, at, end, dst, rows)
                if candidates:
                    _flush_group(
                        engine, candidates, loaded, parts, spills, dirty,
                        frontier, batch_size,
                    )
            at = end
    engine._presolved.clear()


def _join_vertex(edge) -> int:
    return edge[1]


def _drain_scalar(engine, loaded, parts, spills, dirty, frontier) -> None:
    """The one-edge-at-a-time reference the batched schedule reproduces
    byte for byte: compose, merge and check each (left, row) pair the
    moment it is met."""
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


def _round_plan(engine, loaded, parts, batch, backend: str) -> dict:
    """``dst -> (cols, src_array, lo, hi)`` base runs for the round.

    One vectorised ``searchsorted`` per owner partition (numpy) or a
    monotonic bisect walk (stdlib; the distinct join vertices arrive in
    ascending order, so each search starts where the last one ended).
    The captured ``cols``/``src`` objects validate the entry later: a
    mid-round split replaces both, invalidating the ranges.
    """
    dsts = []
    last = None
    for edge in batch:
        dst = edge[1]
        if dst != last:
            dsts.append(dst)
            last = dst
    plan: dict = {"epoch": engine._split_epoch}
    for index, part in parts.items():
        cols = loaded[index]
        mine = [d for d in dsts if part.owns(d)]
        if not mine:
            continue
        src = cols.src
        if backend == "numpy" and len(src):
            kc = _cache_for(engine, cols, backend)
            los = _np.searchsorted(kc.nsrc, mine, side="left").tolist()
            his = _np.searchsorted(kc.nsrc, mine, side="right").tolist()
            for d, lo, hi in zip(mine, los, his):
                plan[d] = (cols, src, lo, hi)
        else:
            lo = 0
            for d in mine:
                lo = bisect_left(src, d, lo)
                hi = bisect_right(src, d, lo)
                plan[d] = (cols, src, lo, hi)
                lo = hi
    return plan


def _group_rows(engine, loaded, parts, plan, dst, backend: str):
    """The join vertex's relevant-target rows, or None/[].

    Matches ``out_rows(dst)`` + the scalar relevance filter: base rows
    in column order first, then the insert overlay in dict/set
    iteration order -- the overlay is read *live* so edges inserted by
    earlier groups of the same round stay visible, exactly like the
    scalar path's just-in-time ``out_rows`` snapshot.
    """
    entry = plan.get(dst)
    if entry is not None and plan.get("epoch") == engine._split_epoch:
        cols = entry[0]
    else:
        cols = None
        for index, part in parts.items():
            if part.owns(dst):
                cols = loaded[index]
                break
        if cols is None:
            return None
    if entry is not None and entry[0] is cols and entry[1] is cols.src:
        lo, hi = entry[2], entry[3]
    else:  # split or compaction replaced the columns mid-round
        lo, hi = cols._src_run(dst)
    targets = cols.extra.get(dst)
    if hi <= lo and not targets:
        return None
    engine.stats.join_probes += 1
    if hi > lo:
        kc = _cache_for(engine, cols, backend)
        if backend == "numpy" and hi - lo >= NUMPY_MIN_RUN:
            mask = kc.mask
            if mask is None:
                rows = list(zip(
                    kc.ndst[lo:hi].tolist(),
                    kc.nlabel[lo:hi].tolist(),
                    kc.nenc[lo:hi].tolist(),
                ))
            else:
                idx = _np.flatnonzero(mask[lo:hi])
                if idx.size:
                    idx += lo
                    rows = list(zip(
                        kc.ndst[idx].tolist(),
                        kc.nlabel[idx].tolist(),
                        kc.nenc[idx].tolist(),
                    ))
                else:
                    rows = []
        else:
            pairs = zip(cols.dst[lo:hi], cols.label[lo:hi], cols.enc[lo:hi])
            relevant = kc.relevant
            if relevant is None:
                rows = list(pairs)
            else:
                rows = [row for row in pairs if row[1] in relevant]
    else:
        rows = []
    if targets:
        rel_tgt = engine._rel_tgt_id
        append = rows.append
        for (d, l), eids in targets.items():
            if rel_tgt(l):
                for eid in eids:
                    append((d, l, eid))
    return rows


def _compose_group(engine, batch, at, end, dst, rows) -> list:
    """Pass 1: compose every (left, row) pair of one join-vertex group.

    Returns surviving candidates ``(src, dst2, label_ids, merged_id)``
    in scalar order.  Label-composition and encoding-merge memos are
    probed as plain dict lookups; misses fall through to the engine's
    memoising helpers, so memo contents end up identical to a scalar
    run's.
    """
    stats = engine.stats
    table_driven = engine._table_driven
    compose_memo = engine._compose_memo
    merge_memo = engine._merge_memo
    compose_labels = engine._compose_labels
    merge_ids = engine._merge_ids
    nrows = len(rows)
    candidates: list = []
    append = candidates.append
    for k in range(at, end):
        src, _, label1_id, enc1 = batch[k]
        stats.compositions_tried += nrows
        for dst2, label2_id, enc2 in rows:
            if table_driven:
                comps = compose_memo.get((label1_id, label2_id))
                if comps is None:
                    comps = compose_labels(
                        src, dst, label1_id, enc1, dst2, label2_id, enc2
                    )
            else:
                comps = compose_labels(
                    src, dst, label1_id, enc1, dst2, label2_id, enc2
                )
            if not comps:
                continue
            mkey = (enc1, enc2)
            # The merge memo stores None for overflowed merges, so probe
            # with ``in`` rather than a None-sentinel get().
            if mkey in merge_memo:
                merged = merge_memo[mkey]
            else:
                merged = merge_ids(enc1, enc2)
            if merged is None:
                stats.encoding_overflow_dropped += 1
                continue
            append((src, dst2, comps, merged))
    return candidates


def _flush_group(
    engine, candidates, loaded, parts, spills, dirty, frontier,
    batch_size: int,
) -> None:
    """Passes 2+3: grouped feasibility, then in-order insertion."""
    stats = engine.stats
    insert = engine._insert
    options = engine.options
    presolve = options.path_sensitive and options.enable_cache
    for start in range(0, len(candidates), batch_size):
        chunk = candidates[start:start + batch_size]
        stats.kernel_batches += 1
        stats.batch_fill += len(chunk)
        if presolve and len(chunk) >= PRESOLVE_MIN:
            _presolve_chunk(engine, chunk, loaded, parts)
        for src, dst2, comps, merged in chunk:
            for label_id in comps:
                insert(
                    src, dst2, label_id, merged, loaded, parts, spills,
                    dirty, frontier, check=True,
                )


def _presolve_chunk(engine, chunk, loaded, parts) -> None:
    """Pass 2: solve one chunk's certainly-queried constraints as a group.

    Only candidates whose insert-time feasibility query is guaranteed to
    happen *and* miss every cache are pre-solved (see the module
    docstring); their verdicts are parked in ``engine._presolved`` and
    consumed by ``GraphEngine._feasible_solve``, which charges the
    query-side counters exactly as the lazy path would.
    """
    stats = engine.stats
    memo_probe = engine._feasible_memo.get
    presolved = engine._presolved
    form_memo = engine._form_memo
    witness_cap = engine.options.witness_cap
    # In a serial engine every LRU entry was written alongside a memo
    # entry for the same ids, so memo-unknown implies LRU-miss and the
    # decode + peek can be skipped; parallel workers get LRU entries
    # broadcast from other processes and must check (so must an engine
    # whose insertion-bounded memo stopped accepting writes).
    memo = engine._feasible_memo
    need_peek = engine._lru_external or len(memo) >= memo.capacity
    peek = engine.cache.peek
    decode = engine._enc.decode
    slot_seen: set = set()
    picked: list = []
    start = time.perf_counter()
    for src, dst2, comps, merged in chunk:
        label0 = comps[0]
        slot = (src, dst2, label0)
        # ``presolved`` also bars re-collecting a merged id an earlier
        # chunk member already picked (under a different slot): its
        # first insert-time query consumes the verdict and memoises, so
        # the second query is a plain memo hit -- pre-solving it again
        # would overcount group hits relative to the scalar path.
        if (
            merged not in presolved
            and memo_probe(merged) is None
            and slot not in slot_seen
        ):
            cols = None
            for index, part in parts.items():
                if part.owns(src):
                    cols = loaded[index]
                    break
            if (
                cols is not None
                and not cols.contains(src, dst2, label0, merged)
                and cols.witness_count(src, dst2, label0) < witness_cap
                and (not need_peek or peek((decode(merged),)) is None)
            ):
                picked.append(merged)
                presolved[merged] = None  # placeholder: bars duplicates
        # Conservatively mark every slot this candidate (and its derived
        # edges) may touch, so later chunk members whose dedup/witness
        # outcome could change are left to the lazy path.
        _mark_slots(engine, slot_seen, src, dst2, comps)
    forms: list = []
    by_form: dict = {}
    if picked:
        form_key = engine._form_key
        with stats.timing("encode_time"):
            keys = [form_key((merged,)) for merged in picked]
        for merged, form in zip(picked, keys):
            verdict = form_memo.get(form)
            if verdict is not None:
                stats.group_hits += 1
                presolved[merged] = verdict
            else:
                entry = by_form.get(form)
                if entry is None:
                    # Only a form nobody has solved yet is decoded.
                    constraint = engine._constraints_for((merged,))[0]
                    by_form[form] = (constraint, [merged])
                    forms.append(form)
                else:
                    entry[1].append(merged)
    if forms:
        _solve_group(engine, forms, by_form)
    stats.feasibility_time += time.perf_counter() - start


def _mark_slots(engine, slot_seen, src, dst2, comps) -> None:
    closure = _derived_closure
    add = slot_seen.add
    for label_id in comps:
        for derived_label_id, flipped in closure(engine, label_id):
            add(
                (dst2, src, derived_label_id) if flipped
                else (src, dst2, derived_label_id)
            )


def _derived_closure(engine, label_id):
    """Transitive closure of the grammar's derived-label relation for
    one label, as ``(label id, orientation flipped?)`` pairs including
    the label itself.  Pure function of the label, so memoised on the
    engine rather than re-walked per candidate."""
    memo = engine._derived_closure
    got = memo.get(label_id)
    if got is None:
        seen = {(label_id, False)}
        pending = [(label_id, False)]
        while pending:
            lab, parity = pending.pop()
            for derived_label_id, rev in engine._derived_ids(lab):
                item = (derived_label_id, parity ^ bool(rev))
                if item not in seen:
                    seen.add(item)
                    pending.append(item)
        got = memo[label_id] = tuple(seen)
    return got


def _solve_group(engine, forms, by_form) -> None:
    """Solve one chunk's distinct unseen canonical forms.

    With tracing and metrics off the whole group goes to the solver in
    one :meth:`check_batch` call; otherwise each form is solved through
    the engine's instrumented helper so per-solve spans and latency
    histograms match the lazy path.  A solve the DPLL(T) loop gave up on
    is not memoisable (the verdict is a conservative SAT, not a theorem
    about the form), so its verdict only covers the one candidate and
    the form's other members are re-solved -- the same per-query
    re-solving the lazy path does.
    """
    stats = engine.stats
    solver_stats = engine.solver.stats
    form_memo = engine._form_memo
    presolved = engine._presolved
    plain = not engine.trace.enabled and stats.metrics is None
    if plain:
        formulas = [by_form[form][0] for form in forms]
        flags: list = []
        with stats.timing("smt_time"):
            stats.constraints_solved += len(formulas)
            results = engine.solver.check_batch(formulas, gave_up_flags=flags)
        outcomes = [
            (result is Result.SAT, gave) for result, gave in zip(results, flags)
        ]
    else:
        outcomes = []
        for form in forms:
            before = solver_stats.gave_up
            verdict = engine._solve_formula(by_form[form][0])
            outcomes.append((verdict, solver_stats.gave_up != before))
    for form, (verdict, gave_up) in zip(forms, outcomes):
        constraint, mergeds = by_form[form]
        presolved[mergeds[0]] = verdict
        if not gave_up:
            stats.feasibility_groups += 1
            form_memo[form] = verdict
            for merged in mergeds[1:]:
                stats.group_hits += 1
                presolved[merged] = verdict
        else:  # rare: re-solve per member, as the lazy path would
            for merged in mergeds[1:]:
                if form in form_memo:  # an earlier re-solve stuck
                    stats.group_hits += 1
                    presolved[merged] = form_memo[form]
                    continue
                before = solver_stats.gave_up
                again = engine._solve_formula(constraint)
                if solver_stats.gave_up == before:
                    stats.feasibility_groups += 1
                    form_memo[form] = again
                presolved[merged] = again
