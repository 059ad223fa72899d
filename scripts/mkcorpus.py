#!/usr/bin/env python3
"""Generate the 66-case benchmark corpus under src/actualcause/corpus/.

Each row below is a transcription of one source scenario: formulas, the
domains annotated for non-effect variables, recorded verdict cells
(intuition / hph / weslake), the omission flag, and intention pairs.
Derived-variable domains are computed as the exact image of the equation
over the parent domains; where the source annotates a derived domain the
computed image is checked against it (`check`).  Defaults are 0 wherever 0
is in the domain, otherwise the all-parents-at-default image (`defaults`
cross-checks the nonzero ones).  Repairs to garbled source rows carry a
`#` note inside the generated file.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass, field
from pathlib import Path

from actualcause.dsl import parse_case, parse_expression, render_case, serialize_case
from actualcause.expr import value_table

CORPUS_DIR = Path(__file__).resolve().parents[1] / "src" / "actualcause" / "corpus"

PIPE_NOTE = "repair: '|' separators dropped by the source extraction were restored"
EFFECT_DOMAIN_NOTE = (
    "effect domain and default synthesized: image of the equation over parent "
    "domains (source annotates non-effect variables only)"
)
SHIFT_NOTE = (
    "comparator cells printed one column left of their headers; reassigned by "
    "layout consistency"
)


@dataclass(frozen=True)
class Row:
    num: int
    source: str
    formulas: str
    intuition: str
    domains: dict[str, tuple[int, ...]] = field(default_factory=dict)
    check: dict[str, tuple[int, ...]] = field(default_factory=dict)
    defaults: dict[str, int] = field(default_factory=dict)
    hph: str | None = None
    weslake: str | None = None
    omission: bool = False
    intentions: str = ""
    notes: tuple[str, ...] = ()


LAMP_INTENTIONS = "(f->a)(g->b)"

ROWS = [
    Row(1, "P1", "a=1; c=1; d=c; b=~c&a; e=d|b", "c,d",
        weslake="d", notes=(PIPE_NOTE,)),
    Row(2, "P2", "a=1; c=0; d=c; b=~c&a; e=d|b", "a,b", notes=(PIPE_NOTE,)),
    Row(3, "P3", "a=0; c=1; e=~a&c", "a,c", hph="c", omission=True),
    Row(4, "P8", "c=1; d=c; b=c; e=d", "c,d"),
    Row(5, "P9", "f=1; d=1; c=f; e=c; a=d; b=a", "c,f"),
    Row(6, "P10", "a=1; c=1; b=c; d=1; f=~d&b; e=~f&a", "a,d,f",
        hph="a", omission=True,
        notes=("repair: source prints 'd=c'; transcribed as d=1 — the printed "
               "equation leaves {a} sufficient alone, contradicting every "
               "recorded verdict column",)),
    Row(7, "P11", "c=1; a=1; e=c|a", "a,c", notes=(PIPE_NOTE,)),
    Row(8, "P12a", "a=1; c=1; f=1; b=~c&a; g=~c&f; d=c; e=b|g|d", "c,d",
        weslake="d", notes=(PIPE_NOTE,)),
    Row(9, "P12b", "a=1; c=0; f=1; b=~c&a; g=~c&f; d=c; e=b|g|d", "a,b,f,g",
        notes=(PIPE_NOTE,)),
    Row(10, "P13a", "a=1; c=1; f=1; b=~c&a; g=~c&f; d=1; e=b|g|d", "d",
        notes=(PIPE_NOTE, "intuition cell printed 'D'; normalized to d")),
    Row(11, "P13b", "a=1; c=0; f=1; b=~c&a; g=~c&f; d=1; e=b|g|d",
        "a,b,c,d,f,g", hph="a,b,d,f,g", weslake="a,b,f", omission=True,
        notes=(PIPE_NOTE,)),
    Row(12, "P14a", "a=1; c=1; b=a; f=c; d=a&~c; e=(b&d)|(d&f)|(b&f)",
        "a,b,c,f", hph="a,b", notes=(PIPE_NOTE,)),
    Row(13, "P20", "c=1; e=c", "c"),
    Row(14, "P21a", "c=1; f=0; d=0; b=c&f; e=d|(c&~f)", "c,f",
        hph="c", omission=True, notes=(PIPE_NOTE,)),
    Row(15, "P21b", "c=1; f=1; d=1; b=c&f; e=d|(c&~f)", "d",
        notes=(PIPE_NOTE,)),
    Row(16, "P22", "c=1; d=1; e=~c&d", "c"),
    Row(17, "P23", "a=1; b=1; c=1; e=a|(b&~c)", "a", notes=(PIPE_NOTE,)),
    Row(18, "P25", "c=0; g=0; i=0; d=0; e=(~c&d)|(c&g)|(c&~i&~g&d)", "{}",
        notes=(PIPE_NOTE,)),
    Row(19, "P26", "c=1; g=1; i=1; d=1; e=(~c&d)|(c&g)|(c&~i&~g&d)", "c,d,g",
        weslake="d,g", notes=(PIPE_NOTE,)),
    Row(20, "P27", "c=1; g=0; i=1; d=1; e=(~c&d)|(c&g)|(c&~i&~g&d)", "c,g,i",
        hph="c,i", omission=True, notes=(PIPE_NOTE,)),
    Row(21, "P29", "a=1; b=1; c=1; d=b&~c; e=a&~d", "a,c,d"),
    Row(22, "P38", "c=1; a=1; f=0; g=c&~f; d=g; b=a&~g; e=d|b", "c,d,f,g",
        weslake="d",
        notes=(PIPE_NOTE,
               "intuition cell printed 'c,g,d or c,g,d,f'; transcribed "
               "inclusively as c,d,f,g — the implemented definition provably "
               "includes the omission f=0")),
    Row(23, "P39", "c=1; a=0; b=0; d=a|b; e=~d&c", "c,d",
        hph="c", omission=True, notes=(PIPE_NOTE,)),
    Row(24, "P40", "a=1; c=1; d=0; e=a&~d", "a,d", hph="a", omission=True),
    Row(25, "P41", "a=1; g=0; c=1; b=g|c; d=c; f=b&~d; e=a&~f", "a,d,f",
        hph="a", omission=True, notes=(PIPE_NOTE,)),
    Row(26, "P42", "a=1; g=1; c=1; b=g&~c; d=c; f=b|d; e=a&f", "a,c,d,f",
        weslake="a,d,f", notes=(PIPE_NOTE,)),
    Row(27, "P43", "f=1; c=1; a=1; d=c; b=~c&a; g=d|b; e=~g&f", "c,d,g",
        weslake="d,g", notes=(PIPE_NOTE,)),
    Row(28, "P44", "h=1; f=1; c=1; a=1; d=c; b=~c&a; i=d|b; g=~i&f; e=~g&h",
        "c,d,g,h,i", notes=(PIPE_NOTE,)),
    Row(29, "P45",
        "a=1; c=1; b={1 if a&c, 2 if a&~c, 0 if ~a}; d=b==1; f=b==2; e=d|f",
        "a,b,d", check={"b": (0, 1, 2)}, weslake="a,d", notes=(PIPE_NOTE,)),
    Row(30, "P46",
        "a=1; c=0; b={1 if a&c, 2 if a&~c, 0 if ~a}; d=b==1; f=b==2; e=d|f",
        "a,b,f", check={"b": (0, 1, 2)}, weslake="a,f", notes=(PIPE_NOTE,)),
    Row(31, "P47", "a=1; c=1; b=a; d=c&b; f=~c&b; e=d", "a,b,c,d"),
    Row(32, "P14b", "a=1; c=0; b=a; f=c; d=a&~c; e=(b&d)|(d&f)|(b&f)",
        "a,b,d", notes=(PIPE_NOTE,)),
    Row(33, "P38b", "c=1; a=1; f=1; g=c&~f; d=g; b=a&~g; e=d|b", "a,b",
        notes=(PIPE_NOTE,)),
    Row(34, "G12.world2", "a=0; b=1; e=a&~b", "{}", hph="a,b",
        notes=("ambiguous comparator cell 'a,b' recorded under hph "
               "(tab-collapsed source row)",)),
    Row(35, "G13.world2", "a=0; b=a; e=a&~b", "{}"),
    Row(36, "G16.world1", "f=1; a=f; g=1; b=g&~a; e=(a&~b)|(~a&b)", "a,f",
        weslake="b", intentions=LAMP_INTENTIONS, notes=(PIPE_NOTE,)),
    Row(37, "G16.world2", "f=0; a=f; g=1; b=g&~a; e=(a&~b)|(~a&b)", "b,g",
        intentions=LAMP_INTENTIONS, notes=(PIPE_NOTE,)),
    Row(38, "G17.world1", "f=1; a=f; g=1; b=g&a; e=(a&~b)|(~a&b)", "b,g",
        intentions=LAMP_INTENTIONS, notes=(PIPE_NOTE,)),
    Row(39, "G17.world2", "f=0; a=f; g=1; b=g&a; e=(a&~b)|(~a&b)", "{}",
        weslake="b", intentions=LAMP_INTENTIONS, notes=(PIPE_NOTE,)),
    Row(40, "G19.e4.4b", "a=1; b=0; c=1; d=b&~c; e=a&~d", "a,d",
        hph="a", weslake="a,b,c,d", omission=True),
    Row(41, "P14c", "a=1; c=1; d=~a&~c; e=(a&d)|(d&c)|(a&c)", "a,c",
        hph="a", weslake="a",
        notes=(PIPE_NOTE,
               "repair: source prints 'd=a&~c'; transcribed as d=~a&~c "
               "(dropped '~') — the printed form makes {a} alone sufficient, "
               "contradicting the recorded columns")),
    Row(42, "", "a=1; b=1; c=1; d=a&~c; f=b&c; e=d|f", "b,c,f",
        weslake="b,f",
        notes=(PIPE_NOTE, "source cell blank in the extraction")),
    Row(43, "W.e6", "c=1; a=~c; b=c; e=a|b", "{}", weslake="b",
        notes=(PIPE_NOTE,
               "printed layout garbled: intuition-position cell 'b' is "
               "untenable (e is reliably constant, so the verified cause set "
               "is empty); intuition recorded {} and 'b' moved to the weslake "
               "cell")),
    Row(44, "W.e7", "f=1; a=f; g=1; b=g&a; e=(a&b)|(~a&~b)", "b,g",
        intentions=LAMP_INTENTIONS, notes=(PIPE_NOTE,)),
    Row(45, "W.e1", "f=1; c=f; g=1; a=g&~c; e=a|c", "c,f", weslake="{}",
        notes=(PIPE_NOTE,)),
    Row(46, "W.e3", "a=1; c=1; d=c; b=a&~d; e=b|d", "c,d", weslake="{}",
        notes=(PIPE_NOTE,)),
    Row(47, "W.e5", "a=1; b=0; c=1; e=(a&b)|c", "c", notes=(PIPE_NOTE,)),
    Row(48, "W.e11", "f=1; g=1; a=f; b=g&a; e=~a&b", "{}"),
    Row(49, "W.e8", "m=1; c=1; e=(m==1)|(c&(m!=2))", "m",
        domains={"m": (0, 1, 2)}, hph="c,m", weslake="{}",
        notes=(PIPE_NOTE, SHIFT_NOTE)),
    Row(50, "W.e4", "v=1; w=1; m=v+w; e=m>=1", "m,v,w",
        check={"m": (0, 1, 2)}, weslake="{}"),
    Row(51, "W.e9", "a=1; b=0-1; c=0-1; e=(a==b)|(b==c)|(a==c)", "b,c",
        domains={"a": (-1, 0, 1), "b": (-1, 0, 1), "c": (-1, 0, 1)},
        hph="a,b,c", weslake="{}",
        notes=(PIPE_NOTE, SHIFT_NOTE,
               "negative constants written 0-1 (the expression language has "
               "no unary minus)")),
    Row(52, "W.e12",
        "a=1; b=1; c=1; f={2 if a&c, 1 if b&~c, 0 if ~((a&c)|(b&~c))}; e=f>0",
        "a,c,f", check={"f": (0, 1, 2)}, hph="a,b,c,f", weslake="a",
        notes=(SHIFT_NOTE,
               "repair: third piecewise guard reconstructed as "
               "~((a&c)|(b&~c)) (dropped '|')")),
    Row(53, "P15", "c=5; a=10; b=a-c; d=c; e=d+b>=10", "a,b,c,d",
        domains={"a": (0, 10), "c": (0, 5)},
        check={"b": (-5, 0, 5, 10), "d": (0, 5)},
        hph="a,b", weslake="a,d", notes=(SHIFT_NOTE,)),
    Row(54, "P16", "c=10; a=10; d=c-a/2; b=a-c/2; e=b+d>=10", "a,b,c,d",
        domains={"a": (0, 10), "c": (0, 10)},
        check={"b": (-5, 0, 5, 10), "d": (-5, 0, 5, 10)},
        hph="a,b,c,d"),
    Row(55, "P17", "c=10; a=10; b=a-c/2; e=b>0", "a,b",
        domains={"a": (0, 10), "c": (0, 10)},
        check={"b": (-5, 0, 5, 10)},
        notes=("repair: printed b-domain {-5,0,5} misses b=a-c/2 at "
               "(a,c)=(10,0); extended to the full image {-5,0,5,10}",)),
    Row(56, "P34",
        "c=7; d=4; e={0 if c==0&d==0, 3+c%3 if c/3>=d/3, 3+d%3 if c/3<d/3}",
        "c", domains={"c": (0, 7, 8), "d": (0, 4, 5)},
        notes=(EFFECT_DOMAIN_NOTE,)),
    Row(57, "P34b",
        "c=7; d=4; e={0 if c==0&d==0, 3+c%3 if c/3>=d/3, 3+d%3 if c/3<d/3}",
        "c", domains={"c": (0, 4, 5, 7, 8), "d": (0, 4, 5, 7, 8)},
        hph="c,d", weslake="{}", notes=(EFFECT_DOMAIN_NOTE, SHIFT_NOTE)),
    Row(58, "P37",
        "c=8; d=5; e={0 if c==0&d==0, 3+c%3 if c/3>=d/3, 3+d%3 if c/3<d/3}",
        "c", domains={"c": (0, 7, 8), "d": (0, 4, 5)},
        notes=(EFFECT_DOMAIN_NOTE,)),
    Row(59, "P30",
        "c=9; d=5; e={c if c>0, d+4 if c==0&d>0, 0 if c==0&d==0}",
        "c", domains={"c": (0, 9, 10, 11), "d": (0, 5, 6, 7)},
        notes=(EFFECT_DOMAIN_NOTE,)),
    Row(60, "P31",
        "c=9; d=5; "
        "f={(c/4-d/4)*4+c%4 if c/4>d/4, 0 if c/4<=d/4}; "
        "g={(d/4-c/4)*4+d%4 if c/4<=d/4, 0 if c/4>d/4}; "
        "e={8+f%4 if f/4>=g/4, 8+g%4 if f/4<g/4}",
        "c,f", domains={"c": (0, 9, 10, 11), "d": (0, 5, 6, 7)},
        check={"f": (0, 5, 6, 7, 9, 10, 11), "g": (0, 5, 6, 7)},
        defaults={"e": 8}, weslake="{}",
        notes=(EFFECT_DOMAIN_NOTE,
               "floor divisions '(x-x%4)/4' from the source written as "
               "integer division x/4")),
    Row(61, "P32",
        "c=7; d=4; "
        "a={c if c/3>=d/3, d if c/3<d/3}; "
        "b={d if c/3>=d/3, c if c/3<d/3}; "
        "f=3+b%3; e=3+a%3",
        "a,c", domains={"c": (0, 6, 7, 8), "d": (0, 3, 4, 5)},
        check={"a": (0, 3, 4, 5, 6, 7, 8), "b": (0, 3, 4, 5)},
        defaults={"f": 3, "e": 3}, hph="a,c,d", weslake="a",
        notes=(EFFECT_DOMAIN_NOTE, SHIFT_NOTE,
               "repair: printed a-domain {0,6,7,8} misses the a=d branch "
               "values {3,4,5}; extended to the full image")),
    Row(62, "P33",
        "c=9; d=5; "
        "h={0 if c*d==0, 1 if (c*d!=0)&((c%4!=d%4)|(c/4<d/4)), "
        "2 if (c*d!=0)&(c/4>=d/4)&(c%4==d%4)}; "
        "b=d*(1-h%2); a=c*(1-h/2); "
        "g={(b/4-a/4)*4+b%4 if b/4>a/4, 0 if b/4<=a/4}; "
        "f={(a/4-b/4)*4+a%4 if a/4>b/4, 0 if a/4<=b/4}; "
        "e={8+f%4 if f/4>=g/4, 8+g%4 if f/4<g/4}",
        "a,b,c,d,f,g,h", domains={"c": (0, 9, 10, 11), "d": (0, 5, 6, 7)},
        check={"h": (0, 1, 2), "a": (0, 9, 10, 11), "b": (0, 5, 6, 7),
               "f": (0, 5, 6, 7, 9, 10, 11), "g": (0, 5, 6, 7)},
        defaults={"e": 8}, weslake="d",
        notes=(PIPE_NOTE, EFFECT_DOMAIN_NOTE,
               "intuition cell reconstructed: source prints 'd', which no "
               "reading of the implemented definition yields; recorded as "
               "the verified cause set a,b,c,d,f,g,h (printed 'd' kept in "
               "the weslake cell)")),
    Row(63, "P35", "c=7; e=6+c%3", "c", domains={"c": (0, 7, 8)},
        defaults={"e": 6}, notes=(EFFECT_DOMAIN_NOTE,)),
    Row(64, "P36", "d=4; e=6+d%3", "d", domains={"d": (0, 4, 5)},
        defaults={"e": 6}, notes=(EFFECT_DOMAIN_NOTE,)),
    Row(65, "P48", "a=15; b=1; c=(a/15)*(15+b); d=c/15; e=c%15==1", "a,b,c",
        domains={"a": (0, 15)}, check={"c": (0, 15, 16), "d": (0, 1)}),
    Row(66, "P49", "a=15; b=2; c=(a/15)*(15+b); d=c/15; e=c%15==1", "b,c",
        domains={"a": (0, 15), "b": (0, 1, 2)},
        check={"c": (0, 15, 16, 17), "d": (0, 1)}, weslake="{}",
        notes=("repair: printed c-domain {0,15,16} misses the actual value "
               "c=17; extended to the full image; b declared over {0,1,2}",)),
]


def _equations(formulas: str) -> dict[str, object]:
    equations: dict[str, object] = {}
    for item in formulas.split(";"):
        item = item.strip()
        name, rhs = item.split("=", 1)
        equations[name.strip()] = parse_expression(rhs)
    return equations


def _domains_and_defaults(row: Row) -> tuple[dict[str, tuple[int, ...]], dict[str, int]]:
    equations = _equations(row.formulas)
    domains: dict[str, tuple[int, ...]] = {}
    defaults: dict[str, int] = {}
    graph = {var: expr.variables() for var, expr in equations.items()}
    for var in graphlib.TopologicalSorter(graph).static_order():
        expr = equations[var]
        parents = sorted(expr.variables())
        if not parents:
            value = expr.evaluate({})
            domain = row.domains.get(var)
            if domain is None:
                if value not in (0, 1):
                    raise SystemExit(
                        f"row {row.num}: initial {var}={value} needs a "
                        f"declared domain"
                    )
                domain = (0, 1)
            if value not in domain or 0 not in domain:
                raise SystemExit(f"row {row.num}: bad domain for {var}")
            domains[var] = domain
            defaults[var] = 0
            continue
        _, values = value_table(expr, parents, [domains[p] for p in parents])
        if None in values:
            raise SystemExit(f"row {row.num}: equation for {var} fails on some setting")
        image = sorted(values)
        expected = row.check.get(var)
        if expected is not None and tuple(image) != tuple(sorted(expected)):
            raise SystemExit(
                f"row {row.num}: computed image of {var} is {image}, "
                f"expected {sorted(expected)}"
            )
        domains[var] = tuple(image)
        if 0 in image:
            defaults[var] = 0
        else:
            defaults[var] = expr.evaluate({p: defaults[p] for p in parents})
    declared_only = set(row.domains) - set(domains)
    if declared_only:
        raise SystemExit(f"row {row.num}: domains for unknown {sorted(declared_only)}")
    nonzero = {v: d for v, d in defaults.items() if d != 0}
    if nonzero != row.defaults:
        raise SystemExit(
            f"row {row.num}: nonzero defaults {nonzero} != expected {row.defaults}"
        )
    return domains, defaults


def _case_text(row: Row) -> str:
    domains, defaults = _domains_and_defaults(row)
    order = [item.split("=", 1)[0].strip() for item in row.formulas.split(";")]
    fields = {
        "case": f"{row.num:02d}", "source": row.source, "mode": "reliable",
        "formulas": row.formulas,
        "domains": "; ".join(
            f"{var}:{{{','.join(str(v) for v in domains[var])}}}"
            for var in order
            if domains[var] != (0, 1)
        ),
        "defaults": "; ".join(f"{var}={defaults[var]}" for var in order if defaults[var] != 0),
        "intuition": row.intuition, "hph": row.hph or "", "weslake": row.weslake or "",
        "omission-flag": "true" if row.omission else "",
        "intentions": row.intentions,
    }
    return render_case(fields, row.notes)


def main() -> None:
    CORPUS_DIR.mkdir(parents=True, exist_ok=True)
    for stale in CORPUS_DIR.glob("*.case"):
        stale.unlink()
    for row in ROWS:
        draft = _case_text(row)
        case = parse_case(draft)
        canonical = serialize_case(case)
        if parse_case(canonical) != case:
            raise SystemExit(f"row {row.num}: canonical form does not round-trip")
        stem = row.source if row.source else "unsourced"
        path = CORPUS_DIR / f"{row.num:02d}-{stem}.case"
        path.write_text(canonical, encoding="utf-8")
        print(f"{path.name}: effect {case.effect.render()}, "
              f"intuition {sorted(ev.var for ev in case.intuition)}")
    print(f"{len(ROWS)} cases written to {CORPUS_DIR}")


if __name__ == "__main__":
    main()
