"""Liveness analysis and dead-store elimination."""

import pytest

from repro.analysis.frontend import compile_source
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.lang.transform import (
    THROWN_FLAG,
    lower_exceptions,
    normalize_calls,
    unroll_loops,
)
from repro.lang.summary import summarize_program, type_facts_of
from repro.lang.types import infer_object_vars
from repro.sa.liveness import eliminate_dead_stores, is_pure_scalar_expr
from repro.sa.reduce import ReductionStats
from repro.workloads.multifile import build_multifile_subject
from repro.workloads.subjects import SUBJECT_PROFILES, build_subject


def compile_core(source: str):
    program = parse_program(source)
    normalize_calls(program)
    unroll_loops(program, 1)
    lower_exceptions(program)
    return program


def objects_of(program):
    return infer_object_vars(type_facts_of(summarize_program(program)))


def assigns_of(program, func: str) -> list[str]:
    return [
        stmt.target
        for stmt in ast.walk_statements(program.functions[func].body)
        if isinstance(stmt, ast.Assign)
    ]


def test_removes_unread_scalar_store():
    program = compile_core(
        "func f(x) { var unused = x + 1; var r = x; return r; }"
    )
    removed = eliminate_dead_stores(program, objects_of(program))
    assert removed == 1
    assert "unused" not in assigns_of(program, "f")
    assert "r" in assigns_of(program, "f")


def test_cascading_chain_removed():
    program = compile_core(
        "func f(x) { var a = x; var b = a + 1; var c = b + 1; return x; }"
    )
    removed = eliminate_dead_stores(program, objects_of(program))
    # c is dead, then b, then a -- the fixpoint loop catches the chain.
    assert removed == 3
    assert assigns_of(program, "f") == []


def test_keeps_stores_feeding_branches_and_returns():
    program = compile_core(
        "func f(x) { var a = x + 1; if (a > 0) { return a; } return 0; }"
    )
    assert eliminate_dead_stores(program, objects_of(program)) == 0
    assert "a" in assigns_of(program, "f")


def test_keeps_object_allocations_and_input():
    program = compile_core(
        """
        func f(x) {
            var w = new FileWriter();
            var i = input();
            var dead = x + 1;
            return x;
        }
        """
    )
    removed = eliminate_dead_stores(program, objects_of(program))
    assert removed == 1
    names = assigns_of(program, "f")
    # The allocation feeds the alias graph and input() feeds occurrence
    # numbering: both stay even though nothing reads them.
    assert "w" in names and "i" in names and "dead" not in names


def test_keeps_call_results():
    program = compile_core(
        """
        func g(x) { return x; }
        func f(x) { var r = g(x); return x; }
        """
    )
    assert eliminate_dead_stores(program, objects_of(program)) == 0
    assert "r" in assigns_of(program, "f")


def test_thrown_flag_pinned_live():
    program = compile_core(
        """
        func boom(x) {
            var e = new Error();
            if (x > 0) { throw e; }
            return x;
        }
        func f(x) {
            var r = boom(x);
            return r;
        }
        """
    )
    eliminate_dead_stores(program, objects_of(program))
    # Exception lowering's `__thrown = ...` stores must all survive: the
    # CFET builder reads the flag off every leaf environment.
    thrown_stores = [
        stmt
        for fn in program.functions.values()
        for stmt in ast.walk_statements(fn.body)
        if isinstance(stmt, ast.Assign) and stmt.target == THROWN_FLAG
    ]
    assert thrown_stores


def test_purity_predicate():
    probe = parse_program(
        "func f(x) { var a = x + 1; var b = input(); var c = g(); }"
    ).functions["f"]
    a, b, c = probe.body
    assert is_pure_scalar_expr(a.value)
    assert not is_pure_scalar_expr(b.value)
    assert not is_pure_scalar_expr(c.value)


#: Dead stores beside an object flow: only the scalar ones may go.
MIXED = """
func f(x) {
    var o = new Obj();
    var p = o;
    var s = x + 1;
    var t = s;
    return x;
}
"""


@pytest.mark.parametrize("name", [*SUBJECT_PROFILES, "gateway", "mixed"])
def test_dead_store_elimination_leaves_object_info_unchanged(name):
    """``compile_source`` infers object variables once, before DSE, and
    hands that result on: it must be the inference of the reduced
    program, on every built-in subject and on gateway 16."""
    if name == "gateway":
        source = build_multifile_subject(name, scale=16).sources
    elif name == "mixed":
        source = MIXED
    else:
        source = build_subject(name).source
    stats = ReductionStats()
    compiled = compile_source(source, reduce=True, reduction=stats)
    # gateway has no dead store: there only the builders run in between.
    assert (stats.dead_stores_removed > 0) is (name != "gateway")
    assert compiled.info == objects_of(compiled.program)
