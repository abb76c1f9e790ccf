"""Unit tests for the symbolic evaluator."""

from repro.lang import ast
from repro.symbolic.evaluator import (
    SymbolicEnv,
    call_result_symbol,
    input_symbol,
    symbol_name,
)
from repro.smt import expr as E


def env_of(*params):
    return SymbolicEnv("fn", list(params))


def test_symbol_names_are_namespaced():
    assert symbol_name("foo", "x") == "foo::x"
    assert call_result_symbol("foo", 3) == "foo::ret3"
    assert input_symbol("foo", 5) == "foo::in5"


def test_params_bound_to_symbols():
    env = env_of("a", "b")
    assert env.eval(ast.VarRef("a")) == E.IntVar("fn::a")
    assert env.eval(ast.VarRef("b")) == E.IntVar("fn::b")


def test_literals():
    env = env_of()
    assert env.eval(ast.IntLit(7)) == E.IntConst(7)
    assert env.eval(ast.BoolLit(True)) is E.TRUE
    assert env.eval(ast.NullLit()) is None


def test_assignment_tracks_values():
    env = env_of("x")
    env.execute(ast.Assign("y", ast.Binary("+", ast.VarRef("x"), ast.IntLit(1))))
    assert env.eval(ast.VarRef("y")) == E.add(E.IntVar("fn::x"), E.IntConst(1))


def test_reassignment_overwrites():
    env = env_of("x")
    env.execute(ast.Assign("y", ast.IntLit(1)))
    env.execute(ast.Assign("y", ast.IntLit(2)))
    assert env.eval(ast.VarRef("y")) == E.IntConst(2)


def test_unwritten_variable_is_fresh_symbol():
    env = env_of()
    assert env.eval(ast.VarRef("ghost")) == E.IntVar("fn::ghost")


def test_object_expressions_evaluate_to_none():
    env = env_of()
    assert env.eval(ast.New("File", 0)) is None
    assert env.eval(ast.FieldLoad("a", "f")) is None
    assert env.eval(ast.ThrownFlagOf("g", 1)) is None


def test_arith_over_none_is_none():
    env = env_of()
    env.execute(ast.Assign("o", ast.NullLit()))
    result = env.eval(ast.Binary("+", ast.VarRef("o"), ast.IntLit(1)))
    assert result is None


def test_comparisons_and_logic():
    env = env_of("x")
    cond = env.eval(
        ast.Binary(
            "&&",
            ast.Binary(">", ast.VarRef("x"), ast.IntLit(0)),
            ast.Binary("<=", ast.VarRef("x"), ast.IntLit(9)),
        )
    )
    x = E.IntVar("fn::x")
    assert cond == E.and_(E.gt(x, E.IntConst(0)), E.le(x, E.IntConst(9)))


def test_unary_operators():
    env = env_of("x")
    assert env.eval(ast.Unary("-", ast.VarRef("x"))) == E.neg(E.IntVar("fn::x"))
    assert env.eval(ast.Unary("!", ast.BoolLit(False))) is E.TRUE


def test_copy_isolates_states():
    env = env_of("x")
    env.execute(ast.Assign("y", ast.IntLit(1)))
    clone = env.copy()
    clone.execute(ast.Assign("y", ast.IntLit(2)))
    assert env.eval(ast.VarRef("y")) == E.IntConst(1)
    assert clone.eval(ast.VarRef("y")) == E.IntConst(2)


def test_input_symbol_from_site():
    env = env_of()
    assert env.eval(ast.Input(9)) == E.IntVar("fn::in9")


def test_call_symbol_from_site():
    env = env_of()
    assert env.eval(ast.Call("g", (), 4)) == E.IntVar("fn::ret4")


def test_opaque_condition_for_objects():
    env = env_of()
    env.execute(ast.Assign("o", ast.NullLit()))
    cond = env.eval_condition(
        ast.Binary("==", ast.VarRef("o"), ast.NullLit()), "h1"
    )
    assert cond == E.BoolVar("fn::opaque_h1")


def test_bool_condition_passes_through():
    env = env_of("x")
    cond = env.eval_condition(ast.Binary(">", ast.VarRef("x"), ast.IntLit(0)), "h")
    assert cond == E.gt(E.IntVar("fn::x"), E.IntConst(0))


def test_int_operand_used_as_boolean_is_unevaluable():
    """``!p``, ``p && n > 0`` and ``p == true`` over an int parameter are
    ill-sorted: no value, like an object operand, instead of a
    ``TypeError`` out of an assignment."""
    env = env_of("p", "n")
    p = ast.VarRef("p")
    positive = ast.Binary(">", ast.VarRef("n"), ast.IntLit(0))
    for expr in (
        ast.Unary("!", p),
        ast.Binary("&&", p, positive),
        ast.Binary("||", positive, p),
        ast.Binary("==", p, ast.BoolLit(True)),
        ast.Binary("+", positive, ast.IntLit(1)),
    ):
        env.execute(ast.Assign("q", expr))
        assert env.values["q"] is None, expr
        assert env.eval_condition(ast.VarRef("q"), "h") == E.BoolVar(
            "fn::opaque_h"
        )
