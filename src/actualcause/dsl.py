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
from .model import Domain, Event, Model, ModelError, Scenario, SearchTooLargeError

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

# One match per token, each a tuple of the four groups below, of which the
# token's own is the only one not empty: an integer, a name, an operator, or
# (last, and only on the last match) the untokenizable rest of the text.
_TOKEN_RE = re.compile(
    r"\s*(?:(\d+)"
    r"|([A-Za-z_][A-Za-z0-9_]*)"
    r"|(==|!=|>=|<=|>|<|[~&|+\-*/%(){},])"
    r"|(\S.*))",
    re.DOTALL,
)
Token = tuple[str, str, str, str]
# past the last token: no group matched
_END: Token = ("", "", "", "")

_RESERVED = {"if"}

# Deepest nesting an expression may have, counted both in open brackets and
# negations while parsing and in the depth of the finished tree.  Parsing and
# every tree walk recurse, so without a limit deep input ends in RecursionError.
MAX_DEPTH = 100


def _to_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError as err:  # more digits than int() converts
        raise ParseError(f"integer too long in {where!r}") from err


def _kind(token: Token) -> tuple[str, str]:
    """A token as (kind, text), for error messages: kind is "int", "name",
    "if" for a reserved name, or "op"."""
    integer, name, op, _ = token
    if integer:
        return "int", integer
    if name:
        return ("if" if name in _RESERVED else "name"), name
    return "op", op


def _unexpected(token: Token, wanted: str, text: str) -> ParseError:
    """The error for `token` where `wanted` (a message naming what was
    expected, or "" for an operand) should have been."""
    if token is _END:
        return ParseError(f"unexpected end of expression in {text!r}")
    if not wanted:
        return ParseError(f"unexpected token {_kind(token)[1]!r} in {text!r}")
    return ParseError(f"{wanted}, found {_kind(token)[1]!r} in {text!r}")


def _too_deep(text: str) -> ParseError:
    return ParseError(f"expression nests deeper than {MAX_DEPTH} levels in {text!r}")


# The parser reads `tokens`, which ends in _END, from `pos` and returns the
# tree, its depth and the position after it; `nesting` counts the brackets
# and negations open around `pos`, and `text` is for error messages.  Both
# depths are checked against MAX_DEPTH as they grow.
def _binary(
    tokens: list[Token], pos: int, floor: int, nesting: int, text: str
) -> tuple[Expr, int, int]:
    """Operators binding at least as tightly as `floor` (expr.BINARY_PREC,
    so precedence is taken from expr.py, not encoded here), left
    associative.  Comparisons do not chain: one may follow only an operand
    that no comparison or looser operator has closed here."""
    expr, depth, pos = _unary(tokens, pos, nesting, text)
    closed = PREC_ATOM  # binding power of the last operator applied
    while True:
        op = tokens[pos][2]
        prec = BINARY_PREC.get(op, 0)  # 0: no operator
        if prec < floor or (prec == PREC_CMP and closed <= PREC_CMP):
            return expr, depth, pos
        rhs, rhs_depth, pos = _binary(tokens, pos + 1, prec + 1, nesting, text)
        depth = 1 + (depth if depth > rhs_depth else rhs_depth)
        if depth > MAX_DEPTH:
            raise _too_deep(text)
        expr = Binary(op, expr, rhs)
        closed = prec


def _unary(
    tokens: list[Token], pos: int, nesting: int, text: str
) -> tuple[Expr, int, int]:
    """An operand: a constant, a name, or a negation, bracket or piecewise
    form, each of which opens one more level of nesting."""
    integer, name, op, _ = token = tokens[pos]
    if integer:
        return Const(_to_int(integer, text)), 1, pos + 1
    if name and name not in _RESERVED:
        return Var(name), 1, pos + 1
    if op != "~" and op != "(" and op != "{":
        raise _unexpected(token, "", text)
    nesting += 1
    if nesting > MAX_DEPTH:
        raise _too_deep(text)
    if op == "~":
        operand, depth, pos = _unary(tokens, pos + 1, nesting, text)
        if depth >= MAX_DEPTH:
            raise _too_deep(text)
        return Not(operand), depth + 1, pos
    if op == "{":
        return _piecewise(tokens, pos + 1, nesting, text)
    inner, depth, pos = _binary(tokens, pos + 1, PREC_OR, nesting, text)
    if tokens[pos][2] != ")":
        raise _unexpected(tokens[pos], "expected ')'", text)
    return inner, depth, pos + 1


def _piecewise(
    tokens: list[Token], pos: int, nesting: int, text: str
) -> tuple[Expr, int, int]:
    """The cases of ``{value if guard, ...}``, after its "{"."""
    cases: list[tuple[Expr, Expr]] = []
    depth = 0  # deepest value or guard
    while True:
        value, value_depth, pos = _binary(tokens, pos, PREC_OR, nesting, text)
        if tokens[pos][1] != "if":
            raise _unexpected(tokens[pos], "expected 'if' after piecewise value", text)
        guard, guard_depth, pos = _binary(tokens, pos + 1, PREC_OR, nesting, text)
        cases.append((value, guard))
        depth = max(depth, value_depth, guard_depth)
        closer = tokens[pos][2]
        if closer == "}":
            if depth >= MAX_DEPTH:
                raise _too_deep(text)
            return Piecewise(tuple(cases)), depth + 1, pos + 1
        if closer != ",":
            raise _unexpected(tokens[pos], "expected ',' or '}' in piecewise", text)
        pos += 1


def parse_expression(text: str) -> Expr:
    """Parse one equation right-hand side."""
    if not text.strip():
        raise ParseError("empty expression")
    tokens = _TOKEN_RE.findall(text)
    rest = tokens[-1][3]
    if rest:
        raise ParseError(f"cannot tokenize {rest.rstrip()!r} in {text!r}")
    tokens.append(_END)
    expr, _, pos = _binary(tokens, 0, PREC_OR, 0, text)
    if tokens[pos] is not _END:
        raise ParseError(f"trailing input {list(map(_kind, tokens[pos:-1]))} in {text!r}")
    return expr


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
    return [piece for piece in map(str.strip, body.split(";")) if piece]


def _parse_name_list(body: str, what: str) -> list[str] | None:
    body = body.strip()
    if body in ("{}", "[]"):
        return []
    if not body:
        return None
    return [_parse_name(piece, what) for piece in body.split(",")]


def parse_case(text: str) -> BenchCase:
    """Parse one case file into a validated benchmark case.  Malformed text
    raises ParseError; a value table past ENUMERATION_CAP raises
    SearchTooLargeError."""
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
    except SearchTooLargeError:
        raise  # too large is not malformed: callers map it to its own exit code
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
    ParseError naming the file, and one whose value table is past
    ENUMERATION_CAP raises SearchTooLargeError naming it."""
    path = Path(path)
    try:
        return parse_case(path.read_text(encoding="utf-8-sig"))
    except OSError as err:
        raise ParseError(f"{path.name}: cannot read ({err.strerror or err})") from err
    except UnicodeDecodeError as err:
        raise ParseError(f"{path.name}: not UTF-8 text ({err})") from err
    except ParseError as err:
        raise ParseError(f"{path.name}: {err}") from err
    except SearchTooLargeError as err:
        raise SearchTooLargeError(f"{path.name}: {err}") from err


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
