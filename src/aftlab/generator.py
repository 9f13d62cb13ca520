"""Seeded random program generator driving the law suites.

Identical configuration and seed always produce the identical program.
"""

from __future__ import annotations

import random

from .lattice import AftlabError
from .program import (
    AggFunc,
    AggregateAtom,
    BodyLiteral,
    Comparator,
    Conj,
    NegatedAgg,
    NegatedAtom,
    PositiveAgg,
    PositiveAtom,
    Program,
    Rule,
    SetTerm,
    SetTermEntry,
    make_program,
)
from .record import record

ATOM_POOL = ("p", "q", "r", "s", "a", "b", "c", "d", "e", "f", "g", "h")


@record
class GeneratorConfig:
    atoms: int = 3
    rules: int = 3
    negation_probability: float = 0.4
    aggregate_probability: float = 0.0
    disjunction_width: int = 2
    seed: int = 0


def _aggregate(rng: random.Random, atoms: tuple[str, ...]) -> AggregateAtom:
    entries = []
    for _ in range(rng.randint(1, 2)):
        weights = (rng.randint(-1, 2),)
        condition = tuple(rng.sample(atoms, rng.randint(1, min(2, len(atoms)))))
        entries.append(SetTermEntry(weights, condition))
    func = rng.choice((AggFunc.SUM, AggFunc.COUNT, AggFunc.MAX))
    comparator = rng.choice(tuple(Comparator))
    bound = rng.randint(-1, 2)
    return AggregateAtom(func, SetTerm(tuple(entries)), comparator, bound)


def generate_program(cfg: GeneratorConfig) -> Program:
    """Random disjunctively normal (optionally aggregate) program."""
    if not 1 <= cfg.atoms <= len(ATOM_POOL):
        raise AftlabError(f"atom count must be between 1 and {len(ATOM_POOL)}")
    if cfg.rules < 1 or cfg.disjunction_width < 1:
        raise AftlabError("rule count and disjunction width must be positive")
    for name in ("negation_probability", "aggregate_probability"):
        if not 0 <= getattr(cfg, name) <= 1:
            raise AftlabError(f"{name.replace('_', ' ')} must be between 0 and 1")
    rng = random.Random(cfg.seed)
    atoms = ATOM_POOL[: cfg.atoms]
    rules = []
    for _ in range(cfg.rules):
        width = rng.randint(1, min(cfg.disjunction_width, len(atoms)))
        head = tuple(sorted(rng.sample(atoms, width)))
        body: list[BodyLiteral] = []
        for _ in range(rng.randint(0, 3)):
            negated = rng.random() < cfg.negation_probability
            if rng.random() < cfg.aggregate_probability:
                agg = _aggregate(rng, atoms)
                body.append(NegatedAgg(agg) if negated else PositiveAgg(agg))
            else:
                name = rng.choice(atoms)
                body.append(NegatedAtom(name) if negated else PositiveAtom(name))
        rules.append(Rule(head, Conj(tuple(body))))
    return make_program(tuple(rules))
