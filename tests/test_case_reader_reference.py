"""The case reader against the one it replaced, kept below verbatim as the
reference: on every input both return equal cases or raise the same
exception with the same message, with one intended difference (see
`_duplicate_domain_reported_first`)."""

from __future__ import annotations

import ast
import random
import re
from pathlib import Path

from actualcause import dsl
from actualcause.dsl import BenchCase, ParseError, _RESERVED, _to_int, parse_expression
from actualcause.expr import Expr
from actualcause.model import Domain, Event, Model, ModelError, Scenario, SearchTooLargeError

TEST_DSL = Path(__file__).resolve().parent / "test_dsl.py"


# Copy of actualcause.dsl from `_INT_RE` up to `read_case` as it was before
# one key table, one line loop and one `name<sep>value` list reader replaced
# it; its `parse_case` is the reference.
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


def outcome(parse, text: str) -> tuple[str, object]:
    try:
        return "case", parse(text)
    except Exception as err:  # the type is compared too
        return type(err).__name__, str(err)


def _duplicate_domain_reported_first(reference: tuple, new: tuple) -> bool:
    """The one intended difference: a domain name given twice whose repeated
    item is malformed too.  The reference read each domain before checking
    for a repeat; now every list reports a repeated name first."""
    found = re.fullmatch(r"duplicate domain for '(\w+)'", str(new[1]))
    if (new[0], reference[0]) != ("ParseError", "ParseError") or not found:
        return False
    name = found.group(1)
    return str(reference[1]).startswith(
        (
            f"domain for {name!r} must be braced: ",
            f"empty domain for {name!r}",
            f"expected integer for domain of {name}, found ",
            f"integer too long in 'domain of {name}'",
        )
    )


def assert_same(texts) -> tuple[int, int]:
    """Compare every text; return how many were compared and how many show
    the intended difference."""
    count = differing = 0
    for text in texts:
        new, reference = outcome(dsl.parse_case, text), outcome(parse_case, text)
        if new != reference:
            assert _duplicate_domain_reported_first(reference, new), (text, new, reference)
            differing += 1
        count += 1
    return count, differing


def test_the_intended_difference():
    text = "case 1\nformulas: a=1; e=a\ndomains: a:{0,1}; a:{x}\n"
    assert outcome(parse_case, text) == (
        "ParseError",
        "expected integer for domain of a, found 'x'",
    )
    assert outcome(dsl.parse_case, text) == ("ParseError", "duplicate domain for 'a'")
    assert assert_same([text]) == (1, 1)


def test_corpus_files(corpus_path):
    texts = [path.read_text(encoding="utf-8") for path in sorted(corpus_path.glob("*.case"))]
    assert len(texts) == 66
    assert assert_same(texts) == (66, 0)
    assert all(outcome(dsl.parse_case, text)[0] == "case" for text in texts)


def test_dsl_test_inputs():
    """Every multi-line string in test_dsl.py: its case texts and the
    pieces of those it builds with f-strings."""
    texts = [
        node.value
        for node in ast.walk(ast.parse(TEST_DSL.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\n" in node.value
    ]
    assert len(texts) > 30
    assert assert_same(texts) == (len(texts), 0)


# Fragments an edit inserts: the format's separators, names, values, keys
# and whole items, so that edits reach each check of the reader.
EDIT_TOKENS = (
    ";", ":", "=", ",", "{", "}", "[", "]", "(", ")", "->", "#", "\n", " ", "",
    "a", "e", "z", "if", "0", "1", "-1", "x", "99999", "9" * 5000,
    "case", "source", "mode", "formulas", "domains", "defaults", "effect",
    "intuition", "hph", "weslake", "omission-flag", "intentions", "true",
    "; a=0", "; a:{x}", "; e:{}", "; a:0,1", "(a->e)", "{}", "[]",
)


def mutate(text: str, rng: random.Random) -> str:
    """`text` after one to three random edits: most delete, replace or
    insert a short span; one in ten repeats a line, one in ten a `;` item."""
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(10)
        if kind == 8:
            line = rng.choice(text.splitlines() or [""])
            text = f"{text}\n{line}\n"
        elif kind == 9 and ";" in text:
            items = text.split(";")
            i = rng.randrange(1, len(items))
            items.insert(i, items[i].split("\n", 1)[0])
            text = ";".join(items)
        else:
            start = rng.randrange(len(text) + 1)
            end = start if kind > 5 else min(len(text), start + rng.randint(1, 3))
            text = text[:start] + (rng.choice(EDIT_TOKENS) if kind > 2 else "") + text[end:]
    return text


def test_mutated_corpus(corpus_path):
    rng = random.Random(38)
    texts = [path.read_text(encoding="utf-8") for path in sorted(corpus_path.glob("*.case"))]
    count, differing = assert_same(mutate(rng.choice(texts), rng) for _ in range(10_000))
    assert count == 10_000
    assert differing > 0
