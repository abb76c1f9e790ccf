"""Lattice-parameterized worklist dataflow solving over the basic-block CFG.

This is the reusable core of the pre-closure static-analysis layer: a
classic iterative dataflow solver over
:class:`repro.lang.cfg.ControlFlowGraph`, parameterized by a
:class:`DataflowProblem` (direction, join, transfer, optional widening).
Concrete passes -- constant propagation (:mod:`repro.sa.constprop`),
liveness (:mod:`repro.sa.liveness`) and the lint analyses
(:mod:`repro.sa.lint`) -- only supply lattice operations; the fixpoint
loop, predecessor indexing and reachability live here.

Conventions:

* ``block_in[b]`` is the dataflow value at the *entry point* of block
  ``b`` and ``block_out[b]`` the value at its *exit point*, regardless of
  direction.  A forward problem computes ``out = transfer(block, in)``; a
  backward problem computes ``in = transfer(block, out)``.
* The solver-internal bottom is the :data:`UNREACHED` sentinel, joined as
  the identity, so problems never need an explicit bottom element.
* Iteration order is deterministic (blocks seeded and re-queued in id
  order), so downstream consumers -- the linter in particular -- produce
  stable output across runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.lang.cfg import BasicBlock, ControlFlowGraph

#: Solver-internal bottom: the value of a block not yet visited.  Join is
#: defined so that ``join(UNREACHED, v) == v``.
UNREACHED = object()


class DataflowProblem:
    """One dataflow analysis: direction plus lattice operations.

    Subclasses set :attr:`direction` and implement :meth:`boundary`,
    :meth:`transfer` and :meth:`join`; :meth:`equal` and :meth:`widen`
    have sensible defaults (structural equality; no widening).
    """

    direction: str = "forward"  # or "backward"

    def boundary(self, cfg: ControlFlowGraph):
        """Initial value at the entry (forward) or every exit (backward)."""
        raise NotImplementedError

    def transfer(self, block: BasicBlock, value):
        """Value after flowing through ``block`` (statements + terminator)."""
        raise NotImplementedError

    def join(self, a, b):
        """Least upper bound of two non-UNREACHED values."""
        raise NotImplementedError

    def equal(self, a, b) -> bool:
        return a == b

    def widen(self, old, new):
        """Widening hook, applied once a block exceeds the visit budget."""
        return new


@dataclass
class DataflowSolution:
    """Fixpoint values per block plus iteration accounting."""

    block_in: dict = field(default_factory=dict)
    block_out: dict = field(default_factory=dict)
    iterations: int = 0


def predecessors(cfg: ControlFlowGraph) -> dict[int, list[int]]:
    """Predecessor lists (sorted, deduplicated) for every block."""
    preds: dict[int, set[int]] = {bid: set() for bid in cfg.blocks}
    for block in cfg.blocks.values():
        for succ in block.successors:
            if succ in preds:
                preds[succ].add(block.block_id)
    return {bid: sorted(ids) for bid, ids in preds.items()}


def reachable_blocks(cfg: ControlFlowGraph) -> set[int]:
    """Block ids reachable from the entry block along successor edges."""
    seen: set[int] = set()
    stack = [cfg.entry]
    while stack:
        bid = stack.pop()
        if bid in seen or bid not in cfg.blocks:
            continue
        seen.add(bid)
        stack.extend(cfg.blocks[bid].successors)
    return seen


def solve(
    cfg: ControlFlowGraph,
    problem: DataflowProblem,
    widen_after: int | None = None,
) -> DataflowSolution:
    """Run ``problem`` to fixpoint over ``cfg``.

    ``widen_after`` bounds the visits per block before :meth:`widen` is
    consulted; None disables widening (the default -- the CFG of a core
    function is acyclic after loop unrolling, so plain iteration
    terminates).
    """
    forward = problem.direction == "forward"
    preds = predecessors(cfg)
    succs = {bid: list(cfg.blocks[bid].successors) for bid in cfg.blocks}
    sources = preds if forward else succs
    boundary = problem.boundary(cfg)

    solution = DataflowSolution()
    computed = solution.block_out if forward else solution.block_in

    worklist = deque(sorted(cfg.blocks))
    queued = set(worklist)
    visits: dict[int, int] = {}

    while worklist:
        bid = worklist.popleft()
        queued.discard(bid)
        block = cfg.blocks[bid]

        incoming = UNREACHED
        for source in sources[bid]:
            value = computed.get(source, UNREACHED)
            if value is UNREACHED:
                continue
            incoming = value if incoming is UNREACHED else problem.join(
                incoming, value
            )
        at_boundary = (bid == cfg.entry) if forward else block.is_return
        if at_boundary:
            incoming = boundary if incoming is UNREACHED else problem.join(
                incoming, boundary
            )
        if incoming is UNREACHED:
            continue  # unreachable in this direction

        if forward:
            solution.block_in[bid] = incoming
        else:
            solution.block_out[bid] = incoming
        result = problem.transfer(block, incoming)

        visits[bid] = visits.get(bid, 0) + 1
        old = computed.get(bid, UNREACHED)
        if widen_after is not None and visits[bid] > widen_after and (
            old is not UNREACHED
        ):
            result = problem.widen(old, result)
        solution.iterations += 1
        if old is not UNREACHED and problem.equal(old, result):
            continue
        computed[bid] = result
        for dependent in (succs if forward else preds)[bid]:
            if dependent not in queued:
                queued.add(dependent)
                worklist.append(dependent)
    return solution
