"""Metamorphic check: a program split into two parts that share no atom. If
P1 and P2 share no atom, every semantics of P = P1 ∪ P2 is the componentwise
product of those of P1 and P2: its models are the pairs (x1 ∪ x2, y1 ∪ y2)
over the models (x1, y1) of P1 and (x2, y2) of P2, the simplest case of the
splitting set theorem (Lifschitz and Turner, "Splitting a logic program",
ICLP 1994); Vennekens, Gilis and Denecker (ACM TOCL 2006) prove its algebraic
form for deterministic approximators. For the non-deterministic operators it
is a measured relation, which holds in every `run_semantics` cell but two of
`gz`. The unions reach pair keys and plane digits of atoms 2 and 3, which
neither part reads on its own, and every decoded sweep."""

from __future__ import annotations

import random

from aftlab import semantics as sem
from aftlab.generator import GeneratorConfig, generate_program
from aftlab.lattice import ApproxPair
from aftlab.operators import OperatorKind
from aftlab.program import make_program, parse
from conftest import SEMANTICS_CELLS, value_or_refusal
from test_renaming import renamed

# Measured exceptions: `gz` maps every non-total pair to ({∅}, {A}), A the
# whole universe, so its value off the total pairs names the atoms of the
# other part too, and a pair total on one side only has no product value.
GZ_EXCEPTIONS = {("fixpoints", OperatorKind.GZ), ("stable", OperatorKind.GZ)}


def split_pairs(count: int, aggregate_probability: float):
    """Seeded pairs of 2-atom programs, the second moved onto fresh atoms."""
    for seed in range(count):
        p1, p2 = (
            generate_program(GeneratorConfig(
                atoms=2, rules=1 + s % 3, aggregate_probability=aggregate_probability, seed=s,
            ))
            for s in (2 * seed, 2 * seed + 1)
        )
        yield p1, renamed(p2, {"p": "a", "q": "b"}, random.Random(seed))


def factors(name, kind, p1, p2) -> bool:
    """Whether the cell of P1 ∪ P2 is the product of the cells of P1 and P2;
    a refusal of the union must be one of the parts' refusals."""
    parts = (p1, p2, make_program(p1.rules + p2.rules))
    first, second, both = (value_or_refusal(sem.run_semantics, name, p, kind) for p in parts)
    refusals = [r for r in (first, second) if isinstance(r, type)]
    if refusals or isinstance(both, type):
        return both in refusals
    product = [ApproxPair(a.lower | b.lower, a.upper | b.upper) for a in first.models for b in second.models]
    return len(both.models) == len(product) and set(both.models) == set(product)


def test_every_semantics_factors_over_a_disjoint_union_but_two_cells_of_gz():
    failing = set()
    for aggregate_probability in (0.0, 0.5):
        for p1, p2 in split_pairs(150, aggregate_probability):
            for name, kind in SEMANTICS_CELLS:
                if (name, kind) not in failing and not factors(name, kind, p1, p2):
                    failing.add((name, kind))
                    assert (name, kind) in GZ_EXCEPTIONS, (p1.text, p2.text, name, kind)
    assert failing == GZ_EXCEPTIONS


def test_the_gz_exceptions_on_their_witness():
    p1, p2 = parse("p | q :- q, p. q :- q."), parse("s :- . r | s :- r, r.")
    for name, kind in SEMANTICS_CELLS:
        assert factors(name, kind, p1, p2) == ((name, kind) not in GZ_EXCEPTIONS), (name, kind)
