"""The interprocedural CFET (paper §3.2-§3.3).

Per-method CFETs are *not* cloned; they are connected by call/return edges
annotated with call-site ids and symbolic parameter-passing equations.  The
ICFET is an in-memory index: the engine holds it (read-only) throughout the
computation to decode path encodings into constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang import ast
from repro.symbolic.evaluator import symbol_name
from repro.cfet.cfet import Cfet, CallRecord, _IdAllocator, build_cfet


@dataclass
class Icfet:
    """All CFETs of a program plus the call/return edge tables."""

    cfets: dict[str, Cfet] = field(default_factory=dict)
    by_cid: dict[int, CallRecord] = field(default_factory=dict)
    by_rid: dict[int, CallRecord] = field(default_factory=dict)

    def cfet(self, func: str) -> Cfet:
        """The CFET of one function."""
        return self.cfets[func]

    def total_nodes(self) -> int:
        """CFET nodes across all functions (index-size metric)."""
        return sum(len(c.nodes) for c in self.cfets.values())


def formals_of(program: ast.Program, name: str) -> tuple[str, ...]:
    """Namespaced formal-parameter symbols of one function (``()`` for
    an extern callee): what the CFET builder binds a call's actuals to."""
    fn = program.functions.get(name)
    return () if fn is None else tuple(symbol_name(name, p) for p in fn.params)


def formal_symbols(program: ast.Program) -> dict[str, tuple[str, ...]]:
    """Namespaced formal-parameter symbols for every function."""
    return {name: formals_of(program, name) for name in program.functions}


@dataclass(frozen=True, slots=True)
class BuiltCfet:
    """A CFET as :func:`build_icfet` may take it again: with its call
    records in id order and the callee formals its builder read."""

    cfet: Cfet
    records: tuple
    #: Callee -> the formal symbols its parameter-passing equations
    #: were built from: all the builder read about other functions.
    formals: dict

    @classmethod
    def of(cls, cfet: Cfet, program: ast.Program) -> "BuiltCfet":
        """``cfet`` as ``build_icfet`` just built it from ``program``."""
        records = tuple(_records(cfet))
        return cls(cfet, records, {
            r.callee: formals_of(program, r.callee) for r in records
        })

    def fits(self, next_id: int, formals: dict) -> bool:
        """Whether :func:`build_cfet` would build this tree again from
        its body with the allocator at ``next_id`` and these ``formals``:
        each call takes the next two ids, so only the first is checked."""
        return (not self.records or self.records[0].cid == next_id) and all(
            formals.get(callee, ()) == read
            for callee, read in self.formals.items()
        )


def _records(cfet: Cfet):
    """The call records of a CFET in node order -- the order the builder
    made them in, so their ids count up from the first."""
    for node in cfet.nodes.values():
        yield from node.calls


def build_icfet(program: ast.Program, reuse=None) -> Icfet:
    """Build CFETs for all functions and connect their call records.

    The program must already be in core form (calls normalised, loops
    unrolled, exceptions lowered).  ``reuse`` maps function names to a
    :class:`BuiltCfet` built earlier from the *same* core body; it is
    taken as is when it :meth:`~BuiltCfet.fits`, and the other CFETs
    are built.
    """
    icfet = Icfet()
    ids = _IdAllocator()
    formals = formal_symbols(program)
    reuse = reuse or {}
    for name, fn in program.functions.items():
        built = reuse.get(name)
        if built is not None and built.fits(ids.next_id, formals):
            cfet, records = built.cfet, built.records
            ids.next_id += 2 * len(records)
        else:
            cfet = build_cfet(fn, ids, formals)
            records = _records(cfet)
        icfet.cfets[name] = cfet
        for record in records:
            icfet.by_cid[record.cid] = record
            icfet.by_rid[record.rid] = record
    return icfet
