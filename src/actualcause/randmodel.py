"""Seeded random scenarios for the verification suites.

Models are small acyclic structures over letter-named variables with
domains drawn from subsets of {0, 1, 2} containing 0, all-zero defaults,
and equations sampled from the expression grammar (rejection-sampled until
they stay inside the variable's domain).
"""

from __future__ import annotations

import random
import string
from typing import Iterator

from .expr import CMP_OPS, Binary, Const, Expr, Not, Piecewise, Var, value_table
from .model import Domain, Event, Model, ModelError, Scenario

__all__ = [
    "random_effect",
    "random_scenario",
    "scenario_stream",
]

_DOMAIN_CHOICES: list[tuple[tuple[int, ...], float]] = [
    ((0, 1), 0.62),
    ((0, 1, 2), 0.28),
    ((0, 2), 0.08),
    ((0,), 0.02),
]

_SUM_OPS = ("+", "-", "*")


def _pick_domain(rng: random.Random) -> Domain:
    total = sum(weight for _, weight in _DOMAIN_CHOICES)
    roll = rng.random() * total
    for values, weight in _DOMAIN_CHOICES:
        roll -= weight
        if roll <= 0:
            return Domain(values)
    return Domain(_DOMAIN_CHOICES[-1][0])


def _leaf(rng: random.Random, parents: list[str]) -> Expr:
    if parents and rng.random() < 0.8:
        return Var(rng.choice(parents))
    return Const(rng.choice((0, 1, 2)))


def _tree(rng: random.Random, parents: list[str], depth: int) -> Expr:
    if depth <= 0 or rng.random() < 0.3:
        return _leaf(rng, parents)
    roll = rng.random()
    if roll < 0.15:
        return Not(_tree(rng, parents, depth - 1))
    if roll < 0.40:
        return Binary("&", _tree(rng, parents, depth - 1), _tree(rng, parents, depth - 1))
    if roll < 0.65:
        return Binary("|", _tree(rng, parents, depth - 1), _tree(rng, parents, depth - 1))
    if roll < 0.80:
        return Binary(
            rng.choice(CMP_OPS),
            _tree(rng, parents, depth - 1),
            _tree(rng, parents, depth - 1),
        )
    if roll < 0.93:
        return Binary(
            rng.choice(_SUM_OPS),
            _tree(rng, parents, depth - 1),
            _tree(rng, parents, depth - 1),
        )
    if roll < 0.96:
        # floor division / remainder by a fixed nonzero constant
        return Binary(
            rng.choice(("/", "%")),
            _tree(rng, parents, depth - 1),
            Const(rng.choice((2, 3))),
        )
    guard = _tree(rng, parents, depth - 1)
    return Piecewise(
        (
            (_leaf(rng, parents), guard),
            (_leaf(rng, parents), Const(1)),
        )
    )


def _equation(
    rng: random.Random,
    parents: list[str],
    domain: Domain,
    domains: dict[str, Domain],
) -> Expr:
    for _attempt in range(24):
        candidate = _tree(rng, parents, depth=2)
        used = sorted(candidate.variables())
        _, values = value_table(candidate, used, [domains[p].values for p in used])
        # None, where evaluation fails, is outside every domain
        if domain.positions.keys() >= values:
            return candidate
    return Const(rng.choice(domain.values))


def random_scenario(
    rng: random.Random,
    max_vars: int = 6,
    mode: str = "reliable",
) -> Scenario:
    count = rng.randint(2, max_vars)
    names = list(string.ascii_lowercase[:count])
    domains = {name: _pick_domain(rng) for name in names}
    equations: dict[str, Expr] = {}
    for index, name in enumerate(names):
        pool = names[:index]
        parents = [p for p in pool if rng.random() < 0.55]
        if len(parents) > 3:
            parents = rng.sample(parents, 3)
        if not parents:
            equations[name] = Const(rng.choice(domains[name].values))
        else:
            equations[name] = _equation(rng, parents, domains[name], domains)
    model = Model(names, equations, domains)
    return Scenario(model=model, mode=mode)


def random_effect(scenario: Scenario) -> Event:
    """The deepest variable (most ancestors; latest declared breaks ties)."""
    model = scenario.model
    best = model.variables[-1]
    best_depth = -1
    for var in model.variables:
        depth = len(model.ancestors(var))
        if depth >= best_depth:
            best, best_depth = var, depth
    return Event(best, scenario.actual_value(best))


def scenario_stream(
    seed: int,
    count: int,
    max_vars: int = 6,
    mode: str = "reliable",
) -> Iterator[tuple[int, Scenario]]:
    """(index, scenario) pairs; each index reseeds independently so any
    single model is reproducible from (seed, index)."""
    produced = 0
    index = 0
    while produced < count:
        rng = random.Random(f"{seed}:{index}")
        try:
            scenario = random_scenario(rng, max_vars, mode)
        except ModelError:
            index += 1
            continue
        yield index, scenario
        produced += 1
        index += 1
