"""Seeded program generator owned by the benchmark.

It emits `.lp` text together with a plain structured form that the
independent oracle in `oracle.py` reads. It deliberately shares no code with
`aftlab.generator`, so a change to the package's generator cannot move the
benchmark's load.

Every one of the n atoms appears in each program: rule i always has atom i in
its head. Every program of one size and shape has the same multiset of head
widths and body lengths; the seed only decides where they go, which atoms
fill them and which literals are negated. That keeps the work per program
(and so the benchmark's run-to-run spread) within a narrower range than
fully random sizes would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ATOMS = "abcdefghijkl"
AGG_FUNCS = ("sum", "count", "max")
COMPARATORS = ("<", "<=", ">", ">=", "=")
NEGATION_PROBABILITY = 0.4
MAX_BODY = 3


@dataclass(frozen=True)
class Lit:
    """Body literal: a plain atom (`agg` is None) or an aggregate atom."""

    negated: bool
    atom: str | None = None
    agg: tuple | None = None  # (func, ((weight, condition atoms), ...), comparator, bound)


@dataclass(frozen=True)
class Rule:
    head: tuple[str, ...]
    body: tuple[Lit, ...]


@dataclass(frozen=True)
class GenProgram:
    atoms: tuple[str, ...]
    rules: tuple[Rule, ...]

    @property
    def has_aggregates(self) -> bool:
        return any(lit.agg is not None for r in self.rules for lit in r.body)

    def text(self) -> str:
        return "".join(_rule_text(r) + "\n" for r in self.rules)


@dataclass(frozen=True)
class Shape:
    """What sets one program family apart from the others."""

    head_width: int = 2
    aggregate_probability: float = 0.0
    negated_aggregates: bool = False


def _agg_text(agg: tuple) -> str:
    func, entries, comparator, bound = agg
    inner = "; ".join(f"{w}:{' & '.join(cond)}" for w, cond in entries)
    return f"#{func}{{{inner}}} {comparator} {bound}"


def _lit_text(lit: Lit) -> str:
    core = lit.atom if lit.agg is None else _agg_text(lit.agg)
    return f"not {core}" if lit.negated else core


def _rule_text(r: Rule) -> str:
    head = " | ".join(r.head)
    if not r.body:
        return f"{head}."
    return f"{head} :- {', '.join(_lit_text(lit) for lit in r.body)}."


def _aggregate(rng: random.Random, atoms: tuple[str, ...]) -> tuple:
    entries = []
    for _ in range(rng.randint(1, 3)):
        weight = rng.choice((1, 1, 2, -1))
        cond = tuple(sorted(rng.sample(atoms, rng.randint(1, 2))))
        entries.append((weight, cond))
    return (rng.choice(AGG_FUNCS), tuple(entries), rng.choice(COMPARATORS), rng.randint(0, 2))


def generate(rng: random.Random, n: int, shape: Shape) -> GenProgram:
    """One program over n atoms with n rules."""
    if not 1 <= n <= len(ATOMS):
        raise ValueError(f"atom count must be in 1..{len(ATOMS)}")
    atoms = tuple(ATOMS[:n])
    widths = [1 + i % shape.head_width for i in range(n)]
    lengths = [(i + 1) % (MAX_BODY + 1) for i in range(n)]
    rng.shuffle(widths)
    rng.shuffle(lengths)
    rules = []
    for i in range(n):
        others = [a for a in atoms if a != atoms[i]]
        head = tuple(sorted({atoms[i], *rng.sample(others, min(widths[i] - 1, len(others)))}))
        body = []
        for _ in range(lengths[i]):
            negated = rng.random() < NEGATION_PROBABILITY
            if rng.random() < shape.aggregate_probability:
                body.append(Lit(negated and shape.negated_aggregates, agg=_aggregate(rng, atoms)))
            else:
                body.append(Lit(negated, atom=rng.choice(atoms)))
        rules.append(Rule(head, tuple(body)))
    return GenProgram(atoms, tuple(rules))
