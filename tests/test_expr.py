"""Expression tree construction, evaluation, precedence, and rendering."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actualcause import (
    Binary,
    Const,
    EvaluationError,
    Not,
    ParseError,
    Piecewise,
    Var,
    parse_expression,
    substitute,
)
from actualcause.dsl import MAX_DEPTH
from actualcause.expr import value_table

from conftest import (
    BINARY_POOLS,
    BIT_EXPRESSIONS,
    BIT_NAMES,
    EXPRESSIONS,
    NESTED_BIT_EXPRESSIONS,
    POOLS,
)


@pytest.mark.parametrize(
    ("source", "env", "expected"),
    [
        ("1 + 2 * 3", {}, 7),
        ("(1 + 2) * 3", {}, 9),
        ("7 / 3", {}, 2),
        ("7 % 3", {}, 1),
        ("0 - 7", {}, -7),
        ("(0 - 7) / 2", {}, -4),  # floor division, not truncation
        ("(0 - 7) % 3", {}, 2),  # floor modulo
        ("a | b & c", {"a": 0, "b": 1, "c": 0}, 0),
        ("a | b & c", {"a": 0, "b": 1, "c": 1}, 1),
        ("~a & b", {"a": 0, "b": 1}, 1),
        ("~(a & b)", {"a": 0, "b": 1}, 1),
        ("a == 0 & b == 0", {"a": 0, "b": 1}, 0),
        ("a == 0 & b == 0", {"a": 0, "b": 0}, 1),
        ("2 > 1", {}, 1),
        ("1 >= 2", {}, 0),
        ("3 != 3", {}, 0),
        ("2 <= 2", {}, 1),
        ("~2", {}, 0),  # any nonzero value is truthy
        ("2 & 3", {}, 1),  # boolean connectives return 0/1
        ("0 | 5", {}, 1),
        ("{2 if a, 1 if 1}", {"a": 0}, 1),
        ("{2 if a, 1 if 1}", {"a": 1}, 2),
        ("{9 if m == 2, 4 if 1}", {"m": 2}, 9),
        ("1 < 2", {}, 1),
        ("2 < 2", {}, 0),
        ("2 == 2", {}, 1),
        ("1 > 1", {}, 0),
        ("2 >= 2", {}, 1),
        ("2 != 3", {}, 1),
    ],
)
def test_parse_and_evaluate(source, env, expected):
    assert parse_expression(source).evaluate(env) == expected


def test_precedence_structure():
    assert parse_expression("a | b & c") == Binary(
        "|", Var("a"), Binary("&", Var("b"), Var("c"))
    )
    assert parse_expression("a == 0 & b == 0") == Binary(
        "&", Binary("==", Var("a"), Const(0)), Binary("==", Var("b"), Const(0))
    )
    assert parse_expression("~a & b") == Binary("&", Not(Var("a")), Var("b"))
    assert parse_expression("a - b - c") == Binary(
        "-", Binary("-", Var("a"), Var("b")), Var("c")
    )
    assert parse_expression("a + b * c") == Binary(
        "+", Var("a"), Binary("*", Var("b"), Var("c"))
    )
    assert parse_expression("a > b + 1") == Binary(
        ">", Var("a"), Binary("+", Var("b"), Const(1))
    )
    assert parse_expression("(a == b) == c") == Binary(
        "==", Binary("==", Var("a"), Var("b")), Var("c")
    )


@pytest.mark.parametrize(
    "source",
    [
        "a == b == c",  # comparisons do not chain
        "a == b & c == d == e",
        "{1 if a == b == c}",
        "(a == b == c)",
        "-1",  # no unary minus; write 0-1
        "a +",
        "(a",
        "{1 if }",
        "",
        "a b",
        pytest.param("(" * 600 + "a" + ")" * 600, id="600-parentheses"),
        pytest.param("~" * 2000 + "a", id="2000-negations"),
        pytest.param("9" * 5000, id="5000-digit-integer"),
    ],
)
def test_parse_errors(source):
    with pytest.raises(ParseError):
        parse_expression(source)


def test_depth_limit_is_inclusive():
    assert parse_expression("(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH) == Var("a")
    assert parse_expression("~" * (MAX_DEPTH - 1) + "a").render().endswith("~a")
    with pytest.raises(ParseError, match="nests deeper"):
        parse_expression("~" * MAX_DEPTH + "a")
    with pytest.raises(ParseError, match="nests deeper"):
        parse_expression("(" * (MAX_DEPTH + 1) + "a" + ")" * (MAX_DEPTH + 1))


def test_evaluate_unbound_variable():
    with pytest.raises(EvaluationError):
        parse_expression("a + 1").evaluate({})


@pytest.mark.parametrize("source", ["1 / 0", "1 % 0", "a / b"])
def test_division_by_zero(source):
    with pytest.raises(EvaluationError):
        parse_expression(source).evaluate({"a": 1, "b": 0})


def test_piecewise_first_true_wins():
    expr = parse_expression("{5 if a == 1, 6 if a >= 1, 0 if 1}")
    assert expr.evaluate({"a": 1}) == 5
    assert expr.evaluate({"a": 2}) == 6
    assert expr.evaluate({"a": 0}) == 0


def test_piecewise_no_true_guard():
    expr = parse_expression("{1 if a}")
    with pytest.raises(EvaluationError):
        expr.evaluate({"a": 0})


def test_piecewise_requires_cases():
    with pytest.raises(ValueError):
        Piecewise(())


def test_bad_operators_rejected():
    for op in ("@", "~", "=", "&&"):
        with pytest.raises(ValueError):
            Binary(op, Var("a"), Const(0))


def test_no_short_circuit():
    # Both operands are always evaluated, so a latent error in the right
    # branch surfaces even when the left branch settles the result.
    with pytest.raises(EvaluationError):
        parse_expression("1 | 1 / 0").evaluate({})
    with pytest.raises(EvaluationError):
        parse_expression("0 & 1 / 0").evaluate({})


def test_variables():
    expr = parse_expression("{a if b & c, d + 1 if 1}")
    assert expr.variables() == frozenset({"a", "b", "c", "d"})
    assert parse_expression("3").variables() == frozenset()


def test_substitute_rebuilds_tree():
    expr = parse_expression("a & b")
    partial = substitute(expr, {"a": 1})
    assert partial == Binary("&", Const(1), Var("b"))
    assert partial.variables() == frozenset({"b"})

    full = substitute(parse_expression("{a if b, c if 1}"), {"a": 2, "b": 1, "c": 0})
    assert full.variables() == frozenset()
    assert full.evaluate({}) == 2


@pytest.mark.parametrize(
    "source",
    [
        "a | b & c",
        "~a & ~b | c",
        "a == 0 & b != 2",
        "(a + b) * c - 1",
        "a / 2 % 3",
        "{1 if a > 0, 0 - 1 if b, 0 if 1}",
        "~(a | b)",
        "a & b & c",
        "a - b - c",
        "a - (b - c)",
    ],
)
def test_render_round_trip(source):
    expr = parse_expression(source)
    assert parse_expression(expr.render()) == expr


def test_render_parenthesizes_by_precedence():
    assert parse_expression("(a | b) & c").render() == "(a | b) & c"
    assert parse_expression("a | b & c").render() == "a | b & c"
    assert parse_expression("a - (b - c)").render() == "a - (b - c)"
    assert parse_expression("(a - b) - c").render() == "a - b - c"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=4000))
def test_render_round_trip_random_equations(seed):
    # Random-model equations exercise every grammar production; a failing
    # seed rebuilds the exact same model.
    import random

    from actualcause import ModelError
    from actualcause.randmodel import random_scenario

    try:
        scenario = random_scenario(random.Random(seed))
    except ModelError:
        return  # rejected draw (e.g. a cyclic or non-total sample); nothing to check
    for expr in scenario.model.equations.values():
        assert parse_expression(expr.render()) == expr


def rowwise_table(expr, names, pools):
    """`expr.evaluate` at each setting in `itertools.product` order, None
    where it raises."""
    rows = []
    for combo in itertools.product(*pools):
        try:
            rows.append(expr.evaluate(dict(zip(names, combo))))
        except EvaluationError:
            rows.append(None)
    return rows


@settings(max_examples=400, deadline=None)
@given(
    EXPRESSIONS,
    st.permutations("abcd").flatmap(lambda order: st.integers(0, 4).map(lambda n: order[:n])),
    st.data(),
)
def test_value_table_matches_rowwise_evaluation(expr, names, data):
    pools = [data.draw(POOLS) for _ in names]
    table, values = value_table(expr, names, pools)
    assert table == rowwise_table(expr, names, pools)
    assert values == set(table)


def test_value_table_marks_only_rows_that_raise():
    expr = parse_expression("{a / b if a, 7 if b, c % a if b == 0}")
    names = ["a", "b", "c"]
    pools = [(0, 2), (0, 1), (1,)]
    # a=0,b=0: the last guard reaches c % 0; a=2,b=0: the first guard's
    # branch divides by zero; a=0,b=1 takes 7 without reaching a / b
    table, values = value_table(expr, names, pools)
    assert table == [None, 7, None, 2] == rowwise_table(expr, names, pools)
    assert values == {None, 7, 2}
    # a guard that raises ends the search even where a later guard holds
    guarded = parse_expression("{1 if 2 / a, 3 if 1}")
    assert value_table(guarded, ["a"], [(0, 1)]) == ([None, 1], {None, 1})


def bit_column(expr, names, pools):
    """`expr.bits` over the layout `value_table` builds, for asking which
    path a tree takes: None sends it to the row path."""
    layout, inner = {}, 1
    for name, pool in zip(reversed(names), reversed(pools)):
        layout[name] = (pool, inner)
        inner *= len(pool)
    return expr.bits(layout, (1 << inner) - 1)


@settings(max_examples=800, deadline=None)
@given(NESTED_BIT_EXPRESSIONS, st.lists(BINARY_POOLS, min_size=5, max_size=5))
def test_bit_path_matches_rowwise_evaluation(expr, pools):
    names = list(BIT_NAMES)
    table, values = value_table(expr, names, pools)
    assert table == rowwise_table(expr, names, pools)
    assert values == set(table)


@settings(max_examples=400, deadline=None)
@given(BIT_EXPRESSIONS, st.lists(BINARY_POOLS, min_size=5, max_size=5))
def test_the_bit_path_reads_its_values_off_the_root(expr, pools):
    # every tree here takes the bit path, which reads which of 0 and 1 the
    # table holds off the root's int instead of scanning the table
    names = list(BIT_NAMES)
    assert bit_column(expr, names, pools) is not None
    table, values = value_table(expr, names, pools)
    assert values == set(table)


# Eight settings of a, b and c, each from (0, 1): enough for the bit path.
ABC = (["a", "b", "c"], [(0, 1)] * 3)


@pytest.mark.parametrize(
    "source",
    [
        "2 | a",  # 2 is true, but not the 1 of a bit column
        "~2",
        "a == 2",
        "2 > a",
        "(a | b) + c",  # the sum leaves {0, 1}
        "{a if b, c if 1}",
        # a bitwise subtree beside a node with none, on either side
        "a & (b + c)",
        "~(a | 2)",
    ],
)
def test_trees_without_a_bitwise_form_take_the_row_path(source):
    expr = parse_expression(source)
    names, pools = ABC
    assert bit_column(expr, names, pools) is None
    table, values = value_table(expr, names, pools)
    assert table == rowwise_table(expr, names, pools)
    assert values == set(table)


def test_bit_path_needs_every_variable_in_zero_one():
    expr = parse_expression("a | b | c")
    assert bit_column(expr, *ABC) is not None
    assert bit_column(expr, ["a", "b", "c"], [(0, 1), (0, 2), (0, 1)]) is None
    assert bit_column(expr, ["a", "b"], [(0, 1), (0, 1)]) is None  # c not laid out


def test_bit_path_keeps_the_mixed_radix_order():
    # settings (a, b, c) in order: (1,0,1) (1,0,0) (1,1,1) (1,1,0) (0,0,1)
    # (0,0,0) (0,1,1) (0,1,0); a > b | c reads (a > b) | c
    expr = parse_expression("a > b | c")
    names, pools = ["a", "b", "c"], [(1, 0), (0, 1), (1, 0)]
    assert bit_column(expr, names, pools) is not None
    table, values = value_table(expr, names, pools)
    assert table == [1, 1, 1, 0, 1, 0, 1, 0] == rowwise_table(expr, names, pools)
    assert values == {0, 1}
    # a one-value pool and a name the tree does not read, whose three values
    # make the table no power of two long
    names, pools = ["a", "d", "b", "c"], [(1, 0), (0, 1, 2), (1,), (0, 1)]
    table, values = value_table(expr, names, pools)
    assert table == rowwise_table(expr, names, pools)
    assert values == set(table)
    # tables of one and of two settings take the bit path too
    names = ["a", "b", "c"]
    for pools, expected in ([(1,), (0,), (1,)], [1]), ([(1,), (0, 1), (0,)], [1, 0]):
        assert bit_column(expr, names, pools) is not None
        table, values = value_table(expr, names, pools)
        assert table == expected == rowwise_table(expr, names, pools)
        assert values == set(expected)
