"""Text formats: the equation expression language and the case-file format.

Case files are line oriented UTF-8.  ``#`` starts a full-line comment.  The
``case``/``source``/``mode`` headers are space separated; every other key
uses a colon.  Unknown keys are rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .expr import (
    BINARY_PREC,
    PREC_ATOM,
    PREC_CMP,
    PREC_OR,
    Binary,
    Const,
    Expr,
    Not,
    Piecewise,
    Var,
)
from .model import Domain, Event, Model, ModelError, Scenario

__all__ = [
    "BenchCase",
    "ParseError",
    "parse_case",
    "parse_expression",
    "read_case",
    "render_model",
    "serialize_case",
]


class ParseError(Exception):
    """Malformed expression or case file."""


# ---------------------------------------------------------------------------
# Expression language
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>==|!=|>=|<=|>|<|[~&|+\-*/%(){},]))"
)

_RESERVED = {"if"}

# Deepest nesting an expression may have, counted both in open brackets and
# negations while parsing and in the depth of the finished tree.  Parsing and
# every tree walk recurse, so without a limit deep input ends in RecursionError.
MAX_DEPTH = 100


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

    # Grammar: `binary` climbs the binding powers of expr.BINARY_PREC, so
    # precedence is taken from expr.py, not encoded here.  Each rule returns
    # the parsed tree and its depth; `node` and `enter` enforce MAX_DEPTH.
    def parse(self) -> Expr:
        expr, _ = self.binary(PREC_OR)
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

    def binary(self, floor: int) -> tuple[Expr, int]:
        """Parse operators binding at least as tightly as `floor`, left
        associative.  Comparisons do not chain: one may follow only an
        operand that no comparison or looser operator has closed here."""
        expr, depth = self.unary()
        closed = PREC_ATOM  # binding power of the last operator applied
        while True:
            token = self.peek()
            prec = BINARY_PREC.get(token[1], 0) if token else 0  # 0: no operator
            if prec < floor or (prec == PREC_CMP and closed <= PREC_CMP):
                return expr, depth
            op = self.take()[1]
            rhs, rhs_depth = self.binary(prec + 1)
            expr, depth = self.node(Binary(op, expr, rhs), depth, rhs_depth)
            closed = prec

    def unary(self) -> tuple[Expr, int]:
        if self.peek() == ("op", "~"):
            self.take()
            self.enter()
            operand, depth = self.unary()
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
            inner = self.binary(PREC_OR)
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
            value, value_depth = self.binary(PREC_OR)
            token = self.take()
            if token != ("if", "if"):
                raise ParseError(
                    f"expected 'if' after piecewise value, found {token[1]!r} "
                    f"in {self.text!r}"
                )
            guard, guard_depth = self.binary(PREC_OR)
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


def parse_expression(text: str) -> Expr:
    """Parse one equation right-hand side."""
    if not text.strip():
        raise ParseError("empty expression")
    return _ExprParser(text).parse()


# ---------------------------------------------------------------------------
# Case files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchCase:
    """One benchmark scenario with its recorded verdict columns."""

    id: str
    source: str
    scenario: Scenario
    effect: Event
    intuition: frozenset[Event] | None = None
    expected_hph: frozenset[Event] | None = None
    expected_weslake: frozenset[Event] | None = None
    omission_flag: bool = False
    notes: tuple[str, ...] = ()


_INT_RE = re.compile(r"-?\d+")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INTENTION_RE = re.compile(r"\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*->\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)")

_COLON_KEYS = (
    "formulas",
    "domains",
    "defaults",
    "effect",
    "intuition",
    "hph",
    "weslake",
    "omission-flag",
    "intentions",
)


def _parse_int(text: str, what: str) -> int:
    text = text.strip()
    if not _INT_RE.fullmatch(text):
        raise ParseError(f"expected integer for {what}, found {text!r}")
    return _to_int(text, what)


def _parse_name(text: str, what: str) -> str:
    text = text.strip()
    if not _NAME_RE.match(text) or text in _RESERVED:
        raise ParseError(f"expected variable name for {what}, found {text!r}")
    return text


def _split_named(item: str, sep: str, what: str) -> tuple[str, str]:
    """Split ``name<sep>body`` at the first `sep` and check the name."""
    if sep not in item:
        raise ParseError(f"{what} without {sep!r}: {item!r}")
    name, body = item.split(sep, 1)
    return _parse_name(name, what), body


def _split_items(body: str) -> list[str]:
    return [piece.strip() for piece in body.split(";") if piece.strip()]


def _parse_name_list(body: str, what: str) -> list[str] | None:
    body = body.strip()
    if body in ("{}", "[]"):
        return []
    if not body:
        return None
    return [_parse_name(piece, what) for piece in body.split(",")]


def parse_case(text: str) -> BenchCase:
    """Parse one case file into a validated benchmark case."""
    fields: dict[str, str] = {}
    notes: list[str] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            notes.append(line[1:].strip())
            continue
        head = line.split(None, 1)[0]
        if head in ("case", "source", "mode"):
            parts = line.split(None, 1)
            if len(parts) != 2 or not parts[1].strip():
                raise ParseError(f"'{head}' line needs a value: {line!r}")
            if head in fields:
                raise ParseError(f"duplicate {head!r} line")
            fields[head] = parts[1].strip()
            continue
        if ":" in line:
            key, body = line.split(":", 1)
            key = key.strip()
            if key in _COLON_KEYS:
                if key in fields:
                    raise ParseError(f"duplicate {key!r} line")
                fields[key] = body.strip()
                continue
        raise ParseError(f"unrecognized line: {line!r}")

    if "case" not in fields:
        raise ParseError("missing 'case' header")
    if "formulas" not in fields:
        raise ParseError("missing 'formulas' line")

    case_id = fields["case"]
    source = fields.get("source", "")
    mode = fields.get("mode", "reliable")

    variables: list[str] = []
    equations: dict[str, Expr] = {}
    for item in _split_items(fields["formulas"]):
        name, rhs = _split_named(item, "=", "formula")
        if name in equations:
            raise ParseError(f"duplicate formula for {name!r}")
        variables.append(name)
        equations[name] = parse_expression(rhs)

    domains: dict[str, Domain] = {}
    for item in _split_items(fields.get("domains", "")):
        name, body = _split_named(item, ":", "domain")
        body = body.strip()
        if not (body.startswith("{") and body.endswith("}")) and not (
            body.startswith("[") and body.endswith("]")
        ):
            raise ParseError(f"domain for {name!r} must be braced: {body!r}")
        inner = body[1:-1].strip()
        if not inner:
            raise ParseError(f"empty domain for {name!r}")
        values = tuple(_parse_int(v, f"domain of {name}") for v in inner.split(","))
        if name in domains:
            raise ParseError(f"duplicate domain for {name!r}")
        try:
            domains[name] = Domain(values)
        except ModelError as err:
            raise ParseError(f"domain for {name!r}: {err}") from err

    defaults: dict[str, int] = {}
    for item in _split_items(fields.get("defaults", "")):
        name, body = _split_named(item, "=", "default")
        if name in defaults:
            raise ParseError(f"duplicate default for {name!r}")
        defaults[name] = _parse_int(body, f"default of {name}")

    intentions: list[tuple[str, str]] = []
    intent_body = fields.get("intentions", "")
    if intent_body:
        matched = _INTENTION_RE.findall(intent_body)
        stripped = _INTENTION_RE.sub("", intent_body).strip()
        if not matched or stripped:
            raise ParseError(f"malformed intentions: {intent_body!r}")
        intentions = [(i, a) for i, a in matched]

    try:
        model = Model(variables, equations, domains)
        scenario = Scenario(
            model=model,
            mode=mode,
            defaults=defaults,
            intentions=tuple(intentions),
        )
        actual = scenario.actual()
    except ModelError as err:
        raise ParseError(f"case {case_id}: {err}") from err

    effect_body = fields.get("effect", "")
    if effect_body:
        name, body = _split_named(effect_body, "=", "effect")
        if name not in actual:
            raise ParseError(f"effect names unknown variable {name!r}")
        value = _parse_int(body, "effect value")
        if actual[name] != value:
            raise ParseError(
                f"case {case_id}: declared effect {name}={value} but the "
                f"scenario solves to {name}={actual[name]}"
            )
        effect = Event(name, value)
    else:
        if "e" not in actual:
            raise ParseError("no effect line and no variable named 'e'")
        effect = Event("e", actual["e"])

    def cell(key: str) -> frozenset[Event] | None:
        names = _parse_name_list(fields.get(key, ""), key)
        if names is None:
            return None
        events = set()
        for name in names:
            if name not in actual:
                raise ParseError(f"{key} names unknown variable {name!r}")
            events.add(Event(name, actual[name]))
        return frozenset(events)

    omission_body = fields.get("omission-flag", "").strip().lower()
    if omission_body not in ("", "true", "false"):
        raise ParseError(f"omission-flag must be true or false: {omission_body!r}")

    return BenchCase(
        id=case_id,
        source=source,
        scenario=scenario,
        effect=effect,
        intuition=cell("intuition"),
        expected_hph=cell("hph"),
        expected_weslake=cell("weslake"),
        omission_flag=omission_body == "true",
        notes=tuple(notes),
    )


def read_case(path: str | Path) -> BenchCase:
    """Parse one case file.  A leading UTF-8 byte-order mark is skipped; a
    file that cannot be read, is not UTF-8 text or does not parse raises
    ParseError naming the file."""
    path = Path(path)
    try:
        return parse_case(path.read_text(encoding="utf-8-sig"))
    except OSError as err:
        raise ParseError(f"{path.name}: cannot read ({err.strerror or err})") from err
    except UnicodeDecodeError as err:
        raise ParseError(f"{path.name}: not UTF-8 text ({err})") from err
    except ParseError as err:
        raise ParseError(f"{path.name}: {err}") from err


def _format_cell(events: frozenset[Event]) -> str:
    if not events:
        return "{}"
    return ",".join(sorted(ev.var for ev in events))


def render_model(model: Model) -> tuple[str, str]:
    """A model's `formulas:` text and its `domains:` text ("" if all binary)."""
    formulas = "; ".join(f"{var}={model.equations[var].render()}" for var in model.variables)
    domains = "; ".join(
        f"{var}:{{{','.join(str(v) for v in model.domains[var].values)}}}"
        for var in model.variables
        if model.domains[var].values != (0, 1)
    )
    return formulas, domains


def serialize_case(case: BenchCase) -> str:
    """Render a case in canonical form.  parse(serialize(parse(t))) is
    parse(t) for every valid case text t."""
    model = case.scenario.model
    lines: list[str] = [f"# {note}" if note else "#" for note in case.notes]
    lines.append(f"case {case.id}")
    if case.source:
        lines.append(f"source {case.source}")
    lines.append(f"mode {case.scenario.mode}")
    formulas, domains = render_model(model)
    lines.append(f"formulas: {formulas}")
    if domains:
        lines.append(f"domains: {domains}")
    default_items = [
        f"{var}={case.scenario.defaults[var]}"
        for var in model.variables
        if case.scenario.defaults[var] != 0
    ]
    if default_items:
        lines.append(f"defaults: {'; '.join(default_items)}")
    lines.append(f"effect: {case.effect.render()}")
    if case.intuition is not None:
        lines.append(f"intuition: {_format_cell(case.intuition)}")
    if case.expected_hph is not None:
        lines.append(f"hph: {_format_cell(case.expected_hph)}")
    if case.expected_weslake is not None:
        lines.append(f"weslake: {_format_cell(case.expected_weslake)}")
    if case.omission_flag:
        lines.append("omission-flag: true")
    if case.scenario.intentions:
        rendered = "".join(f"({i}->{a})" for i, a in case.scenario.intentions)
        lines.append(f"intentions: {rendered}")
    return "\n".join(lines) + "\n"
