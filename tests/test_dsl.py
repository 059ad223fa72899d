"""Case-file parsing, serialization, and the parse/serialize identity."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actualcause import Event, ParseError, parse_case, serialize_case

GOLDEN = """\
# a free-form note
case 99
source TEST
mode reliable
formulas: f=1; a=f; b=a == 1; e=a & b
domains: a:{0,1,2}
defaults: f=1
effect: e=1
intuition: a,b
hph: a
weslake: {}
omission-flag: true
intentions: (f->a)
"""


def test_parse_golden():
    case = parse_case(GOLDEN)
    assert case.id == "99"
    assert case.source == "TEST"
    assert case.scenario.mode == "reliable"
    assert case.scenario.model.variables == ("f", "a", "b", "e")
    assert case.scenario.model.domains["a"].values == (0, 1, 2)
    assert case.scenario.defaults["f"] == 1
    assert case.scenario.defaults["a"] == 0
    assert case.effect == Event("e", 1)
    assert case.intuition == frozenset({Event("a", 1), Event("b", 1)})
    assert case.expected_hph == frozenset({Event("a", 1)})
    assert case.expected_weslake == frozenset()
    assert case.omission_flag is True
    assert case.scenario.intentions == (("f", "a"),)
    assert case.notes == ("a free-form note",)


def test_golden_round_trip():
    case = parse_case(GOLDEN)
    assert parse_case(serialize_case(case)) == case


def test_serialize_emits_notes_first_and_effect_always():
    lines = serialize_case(parse_case(GOLDEN)).splitlines()
    assert lines[0] == "# a free-form note"
    assert any(line.startswith("effect:") for line in lines)


def test_effect_defaults_to_solved_e():
    case = parse_case("case 1\nmode reliable\nformulas: a=1; e=~a\n")
    assert case.effect == Event("e", 0)
    assert case.intuition is None
    assert case.expected_hph is None
    assert case.omission_flag is False


def test_empty_cell_spellings():
    for spelling in ("{}", "[]"):
        case = parse_case(
            f"case 1\nmode reliable\nformulas: a=1; e=a\nintuition: {spelling}\n"
        )
        assert case.intuition == frozenset()


def test_cells_are_bare_names_at_actual_values():
    case = parse_case(
        "case 1\nmode reliable\nformulas: a=0; e=~a\nintuition: a, e\n"
    )
    # Bare names mean the variable at its actual value (here a=0, an omission).
    assert case.intuition == frozenset({Event("a", 0), Event("e", 1)})
    with pytest.raises(ParseError):
        parse_case("case 1\nmode reliable\nformulas: a=0; e=~a\nintuition: a=0\n")


@pytest.mark.parametrize(
    ("text", "fragment"),
    [
        ("mode reliable\nformulas: a=1; e=a\n", "case"),
        ("case 1\nmode reliable\nformulas: a=1; e=a\nformulas: a=1; e=a\n", "duplicate"),
        ("case 1\nmode reliable\nformulas: a=1; e=a\nbogus: x\n", "unrecognized"),
        ("case 1\nmode reliable\nformulas: a=1; e=a\neffect: e=0\n", "solves"),
        ("case 1\nmode reliable\nformulas: a=1; e=a\nintuition: z\n", "z"),
        ("case 1\nmode reliable\n", "formulas"),
        ("case 1\nmode sometimes\nformulas: a=1; e=a\n", "mode"),
        ("case 1\nformulas: a=1; e=a\ndomains: z:{0,1}\n", "unknown variable(s): ['z']"),
        pytest.param(
            "case 1\nformulas: e=1\ndomains: e:{0,1,1}\n",
            "domain for 'e'",
            id="duplicate-domain-value",
        ),
        pytest.param(
            "case 1\nformulas: a=1; e=" + " | ".join(["a"] * 2000) + "\n",
            "nests deeper",
            id="deep-disjunction",
        ),
        ("case\nformulas: a=1; e=a\n", "'case' line needs a value: 'case'"),
        ("case 1\nformulas: a=1; e\n", "formula without '=': 'e'"),
        ("case 1\nformulas: a=1; e=a\ndomains: a:0,1\n", "domain for 'a' must be braced: '0,1'"),
        ("case 1\nformulas: a=1; e=a\ndomains: a:{}\n", "empty domain for 'a'"),
        (
            "case 1\nformulas: a=1; e=a\ndomains: a:{0,x}\n",
            "expected integer for domain of a, found 'x'",
        ),
        ("case 1\nformulas: a=1; a=0; e=a\n", "duplicate formula for 'a'"),
        ("case 1\nformulas: a=1; e=a\ndefaults: a=1; a=0\n", "duplicate default for 'a'"),
        ("case 1\nformulas: a=1; e=a\nintentions: (a>e)\n", "malformed intentions: '(a>e)'"),
        ("case 1\nformulas: a=1; e=a\neffect: z=1\n", "effect names unknown variable 'z'"),
        ("case 1\nformulas: a=1; b=a\n", "no effect line and no variable named 'e'"),
        (
            "case 1\nformulas: a=1; e=a\nomission-flag: yes\n",
            "omission-flag must be true or false: 'yes'",
        ),
        ("case 1\nformulas: if=1; e=1\n", "expected variable name for formula, found 'if'"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as excinfo:
        parse_case(text)
    assert fragment in str(excinfo.value)


def test_intentions_parse():
    case = parse_case(
        "case 1\nmode reliable\n"
        "formulas: f=1; g=1; a=f; b=g; e=a & b\n"
        "intentions: (f->a)(g->b)\n"
    )
    assert case.scenario.intentions == (("f", "a"), ("g", "b"))


def test_serialize_skips_binary_domains_and_zero_defaults():
    case = parse_case(
        "case 7\nmode reliable\nformulas: a=1; b=2; e={0 if a == b, b if 1}\n"
        "domains: b:{0,1,2}; e:{0,1,2}\n"
    )
    text = serialize_case(case)
    assert "a:{0,1}" not in text  # binary domain stays implicit
    assert "b:{0,1,2}" in text
    assert "defaults:" not in text  # all defaults are zero


def test_corpus_identity(corpus_path):
    for case_file in sorted(corpus_path.glob("*.case")):
        original = case_file.read_text(encoding="utf-8")
        case = parse_case(original)
        text = serialize_case(case)
        assert parse_case(text) == case, f"round-trip mismatch in {case_file.name}"
        # The shipped files are canonical: serialize reproduces them byte-for-byte.
        assert text == original, f"{case_file.name} is not in canonical form"


def test_corpus_lines_in_any_order(corpus_path):
    """Notes keep their places; every other line may move."""
    rng = random.Random(38)
    for case_file in sorted(corpus_path.glob("*.case")):
        original = case_file.read_text(encoding="utf-8")
        lines = original.splitlines()
        slots = [i for i, line in enumerate(lines) if not line.startswith("#")]
        moved = [lines[i] for i in slots]
        rng.shuffle(moved)
        for i, line in zip(slots, moved):
            lines[i] = line
        shuffled = "\n".join(lines) + "\n"
        assert shuffled != original, case_file.name
        case = parse_case(shuffled)
        assert case == parse_case(original), case_file.name
        assert serialize_case(case) == original, case_file.name


def test_readme_example_is_canonical():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("## The case DSL", 1)[1].split("```")[1].lstrip("\n")
    assert serialize_case(parse_case(example)) == example


_EXPRESSION_TEXT = st.one_of(
    st.text(alphabet="ab e019~&|()+-*/%{}<>=!,;:if", max_size=40),
    # one short fragment repeated, for deep nesting and long chains
    st.text(alphabet="a1~&|(){}+ if,", min_size=1, max_size=4).map(lambda t: t * 300),
)
_DOMAIN_TEXT = st.lists(st.integers(-2, 3), max_size=4).map(
    lambda values: ",".join(map(str, values))
)


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_arbitrary_text_raises_only_parse_error(text):
    try:
        parse_case(text)
    except ParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(formula=_EXPRESSION_TEXT, domain=_DOMAIN_TEXT, default=_EXPRESSION_TEXT)
def test_arbitrary_case_fields_raise_only_parse_error(formula, domain, default):
    text = (
        "case 1\nmode reliable\n"
        f"formulas: a={formula}; b=a; e=b\n"
        f"domains: a:{{{domain}}}\n"
        f"defaults: a={default}\n"
    )
    try:
        parse_case(text)
    except ParseError:
        pass
