"""Text formats: the equation expression language and the case-file format.

Case files are line oriented UTF-8.  ``#`` starts a full-line comment.  The
``case``/``source``/``mode`` headers are space separated; every other key
uses a colon.  Each key of ``_KEYS`` appears at most once, in any order;
unknown keys are rejected.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import TypeVar

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
    "render_case",
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
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(
    r"\s*(?:(\d+)"
    rf"|({_NAME})"
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
_NAME_RE = re.compile(_NAME)
_INTENTION_RE = re.compile(rf"\(\s*({_NAME})\s*->\s*({_NAME})\s*\)")

# The case-file keys in canonical order, the whitespace-separated headers first.
_KEYS = (
    "case", "source", "mode", "formulas", "domains", "defaults", "effect",
    "intuition", "hph", "weslake", "omission-flag", "intentions",
)
_HEADERS = _KEYS[:3]

_T = TypeVar("_T")


def _parse_int(text: str, what: str) -> int:
    text = text.strip()
    if not _INT_RE.fullmatch(text):
        raise ParseError(f"expected integer for {what}, found {text!r}")
    return _to_int(text, what)


def _parse_name(text: str, what: str) -> str:
    text = text.strip()
    if not _NAME_RE.fullmatch(text) or text in _RESERVED:
        raise ParseError(f"expected variable name for {what}, found {text!r}")
    return text


def _split_named(item: str, sep: str, what: str) -> tuple[str, str]:
    """Split ``name<sep>body`` at the first `sep` and check the name."""
    if sep not in item:
        raise ParseError(f"{what} without {sep!r}: {item!r}")
    name, body = item.split(sep, 1)
    return _parse_name(name, what), body


def _named_items(body: str, sep: str, what: str, parse: Callable[[str, str], _T]) -> dict[str, _T]:
    """The ``name<sep>value`` items of a `;`-separated list, in order, each
    name at most once and each value read by ``parse(name, value)``."""
    items: dict[str, _T] = {}
    for item in filter(None, map(str.strip, body.split(";"))):
        name, value = _split_named(item, sep, what)
        if name in items:
            raise ParseError(f"duplicate {what} for {name!r}")
        items[name] = parse(name, value)
    return items


def _parse_domain(name: str, body: str) -> Domain:
    body = body.strip()
    if body[:1] + body[-1:] not in ("{}", "[]"):
        raise ParseError(f"domain for {name!r} must be braced: {body!r}")
    inner = body[1:-1].strip()
    if not inner:
        raise ParseError(f"empty domain for {name!r}")
    values = tuple(_parse_int(v, f"domain of {name}") for v in inner.split(","))
    try:
        return Domain(values)
    except ModelError as err:
        raise ParseError(f"domain for {name!r}: {err}") from err


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
        if head in _HEADERS:
            key, body = head, line[len(head):]
            if not body:
                raise ParseError(f"'{key}' line needs a value: {line!r}")
        else:
            key, colon, body = line.partition(":")
            key = key.strip()
            if not colon or key not in _KEYS or key in _HEADERS:
                raise ParseError(f"unrecognized line: {line!r}")
        if key in fields:
            raise ParseError(f"duplicate {key!r} line")
        fields[key] = body.strip()

    if "case" not in fields:
        raise ParseError("missing 'case' header")
    if "formulas" not in fields:
        raise ParseError("missing 'formulas' line")
    case_id = fields["case"]

    equations = _named_items(
        fields["formulas"], "=", "formula", lambda _, rhs: parse_expression(rhs)
    )
    domains = _named_items(fields.get("domains", ""), ":", "domain", _parse_domain)
    defaults = _named_items(
        fields.get("defaults", ""), "=", "default",
        lambda name, value: _parse_int(value, f"default of {name}"),
    )

    intent_body = fields.get("intentions", "")
    intentions = _INTENTION_RE.findall(intent_body)
    if intent_body and (not intentions or _INTENTION_RE.sub("", intent_body).strip()):
        raise ParseError(f"malformed intentions: {intent_body!r}")

    try:
        scenario = Scenario(
            model=Model(list(equations), equations, domains),
            mode=fields.get("mode", "reliable"),
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
        body = fields.get(key, "")
        if not body:
            return None
        if body in ("{}", "[]"):
            return frozenset()
        names = [_parse_name(piece, key) for piece in body.split(",")]
        for name in names:
            if name not in actual:
                raise ParseError(f"{key} names unknown variable {name!r}")
        return frozenset(Event(name, actual[name]) for name in names)

    omission_body = fields.get("omission-flag", "").lower()
    if omission_body not in ("", "true", "false"):
        raise ParseError(f"omission-flag must be true or false: {omission_body!r}")

    return BenchCase(
        id=case_id,
        source=fields.get("source", ""),
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


def _format_cell(events: frozenset[Event] | None) -> str:
    if events is None:
        return ""
    return ",".join(sorted(ev.var for ev in events)) or "{}"


def render_model(model: Model) -> tuple[str, str]:
    """A model's `formulas:` text and its `domains:` text ("" if all binary)."""
    formulas = "; ".join(f"{var}={model.equations[var].render()}" for var in model.variables)
    domains = "; ".join(
        f"{var}:{{{','.join(str(v) for v in model.domains[var].values)}}}"
        for var in model.variables
        if model.domains[var].values != (0, 1)
    )
    return formulas, domains


def render_case(fields: Mapping[str, str], notes: Iterable[str] = ()) -> str:
    """Case-file text: each note as a ``#`` line, then each key of `fields`
    whose text is not empty, in the case format's key order."""
    lines = [f"# {note}" if note else "#" for note in notes]
    for key in _KEYS:
        text = fields.get(key)
        if text:
            lines.append(f"{key} {text}" if key in _HEADERS else f"{key}: {text}")
    return "\n".join(lines) + "\n"


def serialize_case(case: BenchCase) -> str:
    """Render a case in canonical form.  parse(serialize(parse(t))) is
    parse(t) for every valid case text t."""
    scenario = case.scenario
    formulas, domains = render_model(scenario.model)
    fields = {
        "case": case.id, "source": case.source, "mode": scenario.mode,
        "formulas": formulas, "domains": domains,
        "defaults": "; ".join(f"{v}={d}" for v, d in scenario.defaults.items() if d),
        "effect": case.effect.render(), "intuition": _format_cell(case.intuition),
        "hph": _format_cell(case.expected_hph), "weslake": _format_cell(case.expected_weslake),
        "omission-flag": "true" if case.omission_flag else "",
        "intentions": "".join(f"({i}->{a})" for i, a in scenario.intentions),
    }
    return render_case(fields, case.notes)
