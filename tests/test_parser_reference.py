"""The expression parser against the recursive-descent parser and the
match-at-a-time tokenizer it replaced, kept below verbatim as the reference:
on every input both return the same tree or raise a ParseError with the same
message."""

from __future__ import annotations

import random
import re

import pytest

from actualcause import ParseError, parse_expression
from actualcause.dsl import MAX_DEPTH
from actualcause.expr import Binary, Const, Expr, Not, Piecewise, Var
from actualcause.randmodel import scenario_stream


# Copy of actualcause.dsl's tokenizer as it was before one findall over a
# single pattern replaced it: one match per token, from the end of the last.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>==|!=|>=|<=|>|<|[~&|+\-*/%(){},]))"
)

_RESERVED = {"if"}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise ParseError(f"cannot tokenize {remainder!r} in {text!r}")
        pos = match.end()
        if match.lastgroup == "int":
            tokens.append(("int", match.group("int")))
        elif match.lastgroup == "name":
            name = match.group("name")
            tokens.append(("if", name) if name in _RESERVED else ("name", name))
        else:
            tokens.append(("op", match.group("op")))
    return tokens


def _to_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError as err:  # more digits than int() converts
        raise ParseError(f"integer too long in {where!r}") from err


# Copy of actualcause.dsl._ExprParser as it was before operator precedence
# moved into expr.BINARY_PREC, one method per precedence level; only its node
# constructors changed, when one Binary node replaced a class per operator.
class _ExprParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise ParseError(f"unexpected end of expression in {self.text!r}")
        self.pos += 1
        return token

    def expect_op(self, op: str) -> None:
        token = self.take()
        if token != ("op", op):
            raise ParseError(f"expected {op!r}, found {token[1]!r} in {self.text!r}")

    def at_op(self, *ops: str) -> str | None:
        token = self.peek()
        if token is not None and token[0] == "op" and token[1] in ops:
            return token[1]
        return None

    # Grammar, loosest binding first.  Each rule returns the parsed tree and
    # its depth; `node` and `enter` enforce MAX_DEPTH.
    def parse(self) -> Expr:
        expr, _ = self.or_expr()
        if self.peek() is not None:
            raise ParseError(
                f"trailing input {self.tokens[self.pos:]} in {self.text!r}"
            )
        return expr

    def too_deep(self) -> ParseError:
        return ParseError(f"expression nests deeper than {MAX_DEPTH} levels in {self.text!r}")

    def node(self, expr: Expr, *child_depths: int) -> tuple[Expr, int]:
        depth = 1 + max(child_depths, default=0)
        if depth > MAX_DEPTH:
            raise self.too_deep()
        return expr, depth

    def enter(self) -> None:
        """Open a bracket or negation, which the parser recurses into."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise self.too_deep()

    def or_expr(self) -> tuple[Expr, int]:
        expr, depth = self.and_expr()
        while self.at_op("|"):
            self.take()
            rhs, rhs_depth = self.and_expr()
            expr, depth = self.node(Binary("|", expr, rhs), depth, rhs_depth)
        return expr, depth

    def and_expr(self) -> tuple[Expr, int]:
        expr, depth = self.cmp_expr()
        while self.at_op("&"):
            self.take()
            rhs, rhs_depth = self.cmp_expr()
            expr, depth = self.node(Binary("&", expr, rhs), depth, rhs_depth)
        return expr, depth

    def cmp_expr(self) -> tuple[Expr, int]:
        expr, depth = self.sum_expr()
        op = self.at_op("==", "!=", ">=", "<=", ">", "<")
        if op is not None:
            self.take()
            rhs, rhs_depth = self.sum_expr()
            expr, depth = self.node(Binary(op, expr, rhs), depth, rhs_depth)
        return expr, depth

    def sum_expr(self) -> tuple[Expr, int]:
        expr, depth = self.prod_expr()
        while True:
            op = self.at_op("+", "-")
            if op is None:
                return expr, depth
            self.take()
            rhs, rhs_depth = self.prod_expr()
            expr, depth = self.node(Binary(op, expr, rhs), depth, rhs_depth)

    def prod_expr(self) -> tuple[Expr, int]:
        expr, depth = self.unary_expr()
        while True:
            op = self.at_op("*", "/", "%")
            if op is None:
                return expr, depth
            self.take()
            rhs, rhs_depth = self.unary_expr()
            expr, depth = self.node(Binary(op, expr, rhs), depth, rhs_depth)

    def unary_expr(self) -> tuple[Expr, int]:
        if self.at_op("~"):
            self.take()
            self.enter()
            operand, depth = self.unary_expr()
            self.nesting -= 1
            return self.node(Not(operand), depth)
        return self.atom()

    def atom(self) -> tuple[Expr, int]:
        token = self.take()
        kind, text = token
        if kind == "int":
            return self.node(Const(_to_int(text, self.text)))
        if kind == "name":
            return self.node(Var(text))
        if kind == "op" and text == "(":
            self.enter()
            inner = self.or_expr()
            self.expect_op(")")
            self.nesting -= 1
            return inner
        if kind == "op" and text == "{":
            self.enter()
            inner = self.piecewise()
            self.nesting -= 1
            return inner
        raise ParseError(f"unexpected token {text!r} in {self.text!r}")

    def piecewise(self) -> tuple[Expr, int]:
        cases: list[tuple[Expr, Expr]] = []
        depths: list[int] = []
        while True:
            value, value_depth = self.or_expr()
            token = self.take()
            if token != ("if", "if"):
                raise ParseError(
                    f"expected 'if' after piecewise value, found {token[1]!r} "
                    f"in {self.text!r}"
                )
            guard, guard_depth = self.or_expr()
            cases.append((value, guard))
            depths += (value_depth, guard_depth)
            token = self.take()
            if token == ("op", "}"):
                return self.node(Piecewise(tuple(cases)), *depths)
            if token != ("op", ","):
                raise ParseError(
                    f"expected ',' or '}}' in piecewise, found {token[1]!r} "
                    f"in {self.text!r}"
                )


def reference_parse(text: str) -> Expr:
    if not text.strip():
        raise ParseError("empty expression")
    return _ExprParser(text).parse()


def outcome(parse, text: str) -> tuple[str, object]:
    try:
        return "tree", parse(text)
    except ParseError as err:
        return "error", str(err)


def assert_same(texts) -> int:
    count = 0
    for text in texts:
        assert outcome(parse_expression, text) == outcome(reference_parse, text), text
        count += 1
    return count


def corpus_right_hand_sides(corpus_path) -> list[str]:
    sides = []
    for case_file in sorted(corpus_path.glob("*.case")):
        for line in case_file.read_text(encoding="utf-8").splitlines():
            if line.startswith("formulas:"):
                items = line.split(":", 1)[1].split(";")
                sides += [item.split("=", 1)[1] for item in items if "=" in item]
    return sides


def test_corpus_right_hand_sides(corpus_path):
    sides = corpus_right_hand_sides(corpus_path)
    assert len(sides) > 300
    assert_same(sides)


def test_random_model_equations():
    texts = [
        expr.render()
        for _, scenario in scenario_stream(3, 2000, max_vars=10)
        for expr in scenario.model.equations.values()
    ]
    assert len(texts) > 10_000
    assert_same(texts)


BINARY_OPS = ("|", "&", "==", "!=", ">=", "<=", ">", "<", "+", "-", "*", "/", "%")

OPERANDS = ("a", "b", "c", "x1", "0", "1", "2", "10")
OPENERS = ("(", "{")
CLOSERS = {"(": (")",), "{": ("if", ",", "}")}
# Besides every token of the language: fragments that are not tokens, or
# that glue onto a neighbour when joined without a space ("=" "=" is "==").
FUZZ_TOKENS = OPERANDS + OPENERS + BINARY_OPS + ("~", ")", "}", "if", ",", "=", "!", "$", "-1")


def fuzzed(rng: random.Random, count: int):
    """Token strings that mostly alternate operand and operator and mostly
    close what they open, so that most get deep into the grammar before
    they fail, if they do."""
    for _ in range(count):
        tokens: list[str] = []
        opened: list[str] = []
        want_operand = True
        for _ in range(rng.randint(1, 12)):
            if rng.random() < 0.08:
                token = rng.choice(FUZZ_TOKENS)
            elif want_operand:
                token = rng.choice(OPERANDS + OPENERS + ("~",))
            else:
                token = rng.choice(BINARY_OPS + CLOSERS[opened[-1]] if opened else BINARY_OPS)
            tokens.append(token)
            if token in OPENERS:
                opened.append(token)
            elif token in (")", "}") and opened:
                opened.pop()
            want_operand = token not in OPERANDS + (")", "}")
        yield rng.choice((" ", " ", "")).join(tokens)


def test_fuzzed_token_strings():
    assert assert_same(fuzzed(random.Random(11), 100_000)) == 100_000


_LEXEME_RE = re.compile(r"\s*(==|!=|>=|<=|\w+|\S)")


def mutations(text: str, rng: random.Random):
    """Every one-token deletion of `text`, and random one-token
    replacements and insertions."""
    lexemes = _LEXEME_RE.findall(text)
    for i in range(len(lexemes)):
        yield " ".join(lexemes[:i] + lexemes[i + 1 :])
        yield " ".join(lexemes[:i] + [rng.choice(FUZZ_TOKENS)] + lexemes[i + 1 :])
        yield " ".join(lexemes[:i] + [rng.choice(FUZZ_TOKENS)] + lexemes[i:])


def test_one_token_mutations(corpus_path):
    rng = random.Random(5)
    texts = corpus_right_hand_sides(corpus_path) + [
        "{1 if a == b + 2 * c, 0 if ~(a | b) & c != 1}",
        "a % 2 - b / (c + 1) >= ~a & b | c < 2",
    ]
    assert assert_same(m for text in texts for m in mutations(text, rng)) > 3000


# Where the old tokenizer stopped matching, the new pattern's last group
# takes the rest of the text, and only whitespace may be left unmatched;
# error messages render the tokens as the old tokenizer's (kind, text) pairs.
@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("a $ b", "cannot tokenize '$ b' in 'a $ b'"),
        ("a !", "cannot tokenize '!' in 'a !'"),
        ("a = b", "cannot tokenize '= b' in 'a = b'"),
        ("a =", "cannot tokenize '=' in 'a ='"),
        ("(a | b) $\t\n", "cannot tokenize '$' in '(a | b) $\\t\\n'"),
        ("a $\n b \t", "cannot tokenize '$\\n b' in 'a $\\n b \\t'"),
        ("é", "cannot tokenize 'é' in 'é'"),
        ("a | é", "cannot tokenize 'é' in 'a | é'"),
        ("aé", "cannot tokenize 'é' in 'aé'"),
        ("\t\n(a | ", "unexpected end of expression in '\\t\\n(a | '"),
        ("a +", "unexpected end of expression in 'a +'"),
        ("a b", "trailing input [('name', 'b')] in 'a b'"),
        ("x٣ if", "trailing input [('int', '٣'), ('if', 'if')] in 'x٣ if'"),
    ],
)
def test_errors_at_the_edges_of_the_pattern(text, message):
    assert outcome(parse_expression, text) == outcome(reference_parse, text)
    assert outcome(parse_expression, text) == ("error", message)


@pytest.mark.parametrize(
    ("text", "tree"),
    [
        ("\ta | b", Binary("|", Var("a"), Var("b"))),
        ("\n\ta\t\n", Var("a")),
        ("a\n&\tb\n\n", Binary("&", Var("a"), Var("b"))),
        ("\u00a0a\u2003", Var("a")),  # Unicode spaces are whitespace too
        ("a + ٣", Binary("+", Var("a"), Const(3))),  # \d takes every decimal digit
        ("1٣", Const(13)),
    ],
)
def test_whitespace_and_non_ascii_digits(text, tree):
    assert outcome(parse_expression, text) == outcome(reference_parse, text)
    assert parse_expression(text) == tree


@pytest.mark.parametrize("op", BINARY_OPS)
def test_depth_edges(op):
    texts = []
    for n in (MAX_DEPTH - 2, MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1):
        texts += [
            "(" * n + "a" + ")" * n,
            "~" * n + "a",
            "{" * n + "1" + " if a}" * n,
            f" {op} ".join(["a"] * n),  # left-deep
            "".join(f"(a {op} " for _ in range(n)) + "a" + ")" * n,  # right-deep
            "(" * (n // 2) + f" {op} ".join(["a"] * (n // 2)) + ")" * (n // 2),
            "~(" * (n // 2) + "a" + ")" * (n // 2),
        ]
    assert_same(texts)
