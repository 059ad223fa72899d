"""Expression trees for structural equations over finite integer domains.

The expression language is deliberately small: integer constants, variable
references, logical negation / conjunction / disjunction (zero is false,
anything else is true, results are always 0 or 1), the six comparisons,
floor-division arithmetic, and a first-true-wins piecewise form.  Every
binary operator is one `Binary` node: `BINARY_PREC` gives how tightly each
binds, and `_OPERATORS` what each computes.

An expression evaluates at one environment (`Expr.evaluate`) or at every
setting of its variables (`value_table`).  Where every node of the tree has
a bitwise form (`|`, `&`, `~`, the comparisons, the constants 0 and 1, and
variables whose values are all 0 or 1), `value_table` evaluates each node
once over all settings, as one int with a bit per setting, so that each
node costs a few int operations however many settings there are, and turns
the root's int into the table once, at the end; which of 0 and 1 the table
holds is read off that int too, and the int is returned with the table.
Every other tree, for which `Expr.bits` gives None, is evaluated one
setting at a time.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

__all__ = [
    "CMP_OPS",
    "Binary",
    "Const",
    "EvaluationError",
    "Expr",
    "Not",
    "Piecewise",
    "Var",
    "substitute",
    "value_table",
]


class EvaluationError(Exception):
    """An expression could not be evaluated against an environment."""


CMP_OPS = ("==", "!=", ">=", ">", "<=", "<")

# Precedence levels; higher binds tighter.
PREC_OR = 1
PREC_AND = 2
PREC_CMP = 3
PREC_SUM = 4
PREC_PROD = 5
PREC_NOT = 6
PREC_ATOM = 7

# Binding power of each binary operator.  Rendering and the parser in dsl.py
# both read it, so precedence is decided here only.
BINARY_PREC = {
    "|": PREC_OR,
    "&": PREC_AND,
    **dict.fromkeys(CMP_OPS, PREC_CMP),
    "+": PREC_SUM,
    "-": PREC_SUM,
    "*": PREC_PROD,
    "/": PREC_PROD,
    "%": PREC_PROD,
}

# A table holds one value per setting, or None where `evaluate` raises.  A
# bit column (`Expr.bits`) holds a 0/1 table that never raises as one int,
# bit k the value at setting k.
Column = list[int | None]
# Settings in mixed-radix order: each variable's pool of values, and how many
# consecutive settings share each of its values.
Layout = dict[str, tuple[Sequence[int], int]]

RowFunction = Callable[[int, int], int]
# Over two bit columns and `full`, the int with a bit at every setting.
BitKernel = Callable[[int, int, int], int]
Operator = tuple[RowFunction, BitKernel | None]


def _comparison(test: Callable[[int, int], bool], bits: BitKernel) -> Operator:
    """1 where `test` holds, 0 where it fails."""
    return lambda a, b: 1 if test(a, b) else 0, bits


# What each binary operator computes: at one row of operands (floor division
# and remainder by zero raise ZeroDivisionError), and over two bit columns of
# operands that are 0 or 1 at every setting (None for arithmetic, whose
# results leave {0, 1}).
_OPERATORS: dict[str, Operator] = {
    "|": (lambda a, b: 1 if a or b else 0, lambda x, y, full: x | y),
    "&": (lambda a, b: 1 if a and b else 0, lambda x, y, full: x & y),
    "==": _comparison(operator.eq, lambda x, y, full: full ^ (x ^ y)),
    "!=": _comparison(operator.ne, lambda x, y, full: x ^ y),
    ">=": _comparison(operator.ge, lambda x, y, full: x | (full ^ y)),
    ">": _comparison(operator.gt, lambda x, y, full: x & (full ^ y)),
    "<=": _comparison(operator.le, lambda x, y, full: (full ^ x) | y),
    "<": _comparison(operator.lt, lambda x, y, full: (full ^ x) & y),
    "+": (operator.add, None),
    "-": (operator.sub, None),
    "*": (operator.mul, None),
    "/": (operator.floordiv, None),
    "%": (operator.mod, None),
}

_BIT_VALUES = frozenset((0, 1))
# "0"/"1" characters to the byte values 0/1
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _bit_column(pool: Sequence[int], inner: int, size: int) -> int:
    """A variable's column as an int (see `Expr.bits`): its pool, each value
    `inner` settings long, repeated over `size` settings."""
    ones = (1 << inner) - 1
    block = 0
    for i, value in enumerate(pool):
        if value:
            block |= ones << i * inner
    width = inner * len(pool)
    # `count` copies of `block`, side by side, by doubling
    count = size // width
    out = filled = 0
    while True:
        if count & 1:
            out |= block << filled
            filled += width
        count >>= 1
        if not count:
            return out
        block |= block << width
        width *= 2


class Expr:
    """Base class of all expression nodes.  Nodes are immutable values."""

    def evaluate(self, env: Mapping[str, int]) -> int:
        raise NotImplementedError

    def bits(self, layout: Layout, full: int) -> int | None:
        """`evaluate` at every setting of `layout` at once: one int, bit k
        the value at setting k, where `full` has a bit at each setting.
        None unless every node of the tree has a bitwise form and every
        variable is laid out with values in {0, 1}."""
        return None

    def variables(self) -> frozenset[str]:
        raise NotImplementedError

    def prec(self) -> int:
        return PREC_ATOM

    def render(self) -> str:
        raise NotImplementedError

    def _wrap(self, child: "Expr", floor: int) -> str:
        text = child.render()
        return f"({text})" if child.prec() < floor else text

    def __str__(self) -> str:
        return self.render()


def _truth(value: int) -> bool:
    return value != 0


@dataclass(frozen=True)
class Const(Expr):
    value: int

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.value

    def bits(self, layout: Layout, full: int) -> int | None:
        if self.value not in _BIT_VALUES:
            return None
        return full if self.value else 0

    def variables(self) -> frozenset[str]:
        return frozenset()

    def render(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def evaluate(self, env: Mapping[str, int]) -> int:
        try:
            return env[self.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {self.name!r}") from None

    def bits(self, layout: Layout, full: int) -> int | None:
        entry = layout.get(self.name)
        if entry is None or not _BIT_VALUES.issuperset(entry[0]):
            return None
        pool, inner = entry
        return _bit_column(pool, inner, full.bit_length())

    def variables(self) -> frozenset[str]:
        return frozenset((self.name,))

    def render(self) -> str:
        return self.name


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr

    def evaluate(self, env: Mapping[str, int]) -> int:
        return 0 if _truth(self.operand.evaluate(env)) else 1

    def bits(self, layout: Layout, full: int) -> int | None:
        operand = self.operand.bits(layout, full)
        return None if operand is None else full ^ operand

    def variables(self) -> frozenset[str]:
        return self.operand.variables()

    def prec(self) -> int:
        return PREC_NOT

    def render(self) -> str:
        return "~" + self._wrap(self.operand, PREC_NOT)


@dataclass(frozen=True)
class Binary(Expr):
    """`left op right` for any operator `op` of BINARY_PREC."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in BINARY_PREC:
            raise ValueError(f"unknown binary operator {self.op!r}")

    def evaluate(self, env: Mapping[str, int]) -> int:
        # Both sides are evaluated: evaluation errors must not depend on
        # short-circuiting, so validation sees every branch.
        lhs = self.left.evaluate(env)
        rhs = self.right.evaluate(env)
        row = _OPERATORS[self.op][0]
        try:
            return row(lhs, rhs)
        except ZeroDivisionError:
            raise EvaluationError(f"division by zero in {self.render()!r}") from None

    def bits(self, layout: Layout, full: int) -> int | None:
        kernel = _OPERATORS[self.op][1]
        if kernel is None or (left := self.left.bits(layout, full)) is None:
            return None
        right = self.right.bits(layout, full)
        return None if right is None else kernel(left, right, full)

    def variables(self) -> frozenset[str]:
        return self.left.variables() | self.right.variables()

    def prec(self) -> int:
        return BINARY_PREC[self.op]

    def render(self) -> str:
        # Left associative; comparisons do not chain, so neither side of
        # one may be a comparison or anything looser.
        level = self.prec()
        lhs = self._wrap(self.left, level + 1 if level == PREC_CMP else level)
        return f"{lhs} {self.op} {self._wrap(self.right, level + 1)}"


@dataclass(frozen=True)
class Piecewise(Expr):
    """First-true-wins guarded alternatives: ``{value if guard, ...}``."""

    cases: tuple[tuple[Expr, Expr], ...]  # (value, guard) pairs, in order

    def __post_init__(self) -> None:
        if not self.cases:
            raise ValueError("piecewise expression needs at least one case")

    def evaluate(self, env: Mapping[str, int]) -> int:
        for value, guard in self.cases:
            if _truth(guard.evaluate(env)):
                return value.evaluate(env)
        raise EvaluationError(f"no true guard in {self.render()!r}")

    def variables(self) -> frozenset[str]:
        names: frozenset[str] = frozenset()
        for value, guard in self.cases:
            names |= value.variables() | guard.variables()
        return names

    def render(self) -> str:
        parts = [f"{value.render()} if {guard.render()}" for value, guard in self.cases]
        return "{" + ", ".join(parts) + "}"


def substitute(expr: Expr, values: Mapping[str, int]) -> Expr:
    """Replace variable references by integer constants, rebuilding the tree."""
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        if expr.name in values:
            return Const(values[expr.name])
        return expr
    if isinstance(expr, Not):
        return Not(substitute(expr.operand, values))
    if isinstance(expr, Binary):
        return Binary(expr.op, substitute(expr.left, values), substitute(expr.right, values))
    if isinstance(expr, Piecewise):
        return Piecewise(
            tuple(
                (substitute(value, values), substitute(guard, values))
                for value, guard in expr.cases
            )
        )
    raise TypeError(f"not an expression node: {expr!r}")


def value_table(
    expr: Expr, names: Sequence[str], pools: Sequence[Sequence[int]]
) -> tuple[Column, set[int | None], int | None]:
    """`expr` evaluated at every setting of `names`, each drawing its value
    from the matching pool: one entry per setting in mixed-radix order (the
    last name varies fastest, as in `itertools.product`), None where
    `expr.evaluate` raises on that setting; the set of the table's entries;
    and its bit column (`Expr.bits`) where the tree has one, else None."""
    layout: Layout = {}
    size = 1
    for name, pool in zip(reversed(names), reversed(pools)):
        layout[name] = (pool, size)
        size *= len(pool)
    full = (1 << size) - 1
    bits = expr.bits(layout, full)
    if bits is not None:
        # C-level string ops make the table: `bin` writes the highest bit
        # first, after "0b" and the sentinel bit at `size`
        table = list(bin(bits | 1 << size)[:2:-1].encode().translate(_DIGITS_TO_BITS))
        # the table holds 0 unless every bit is set, and 1 unless none is
        values: set[int | None] = set()
        if bits != full:
            values.add(0)
        if bits:
            values.add(1)
        return table, values, bits
    table: Column = []
    for combo in itertools.product(*pools):
        try:
            table.append(expr.evaluate(dict(zip(names, combo))))
        except EvaluationError:
            table.append(None)
    return table, set(table), None
