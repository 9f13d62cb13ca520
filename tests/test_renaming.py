"""Metamorphic check: the semantics and the operators do not depend on the
names of the atoms or on the order of the rules. A program with its atoms
renamed by a permutation and its rules shuffled has the renamed models under
every semantics and operator, and the renamed operator values at every
consistent pair. Renaming moves the atoms to other bits of the universe, so
this reaches the mask numbering, the decode tables and the family store,
which is keyed by atom names."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from aftlab import operators as ops, semantics as sem
from aftlab.generator import ATOM_POOL, GeneratorConfig, generate_program
from aftlab.lattice import AftlabError, ApproxPair, NdPair
from aftlab.program import (
    AggregateAtom,
    Conj,
    NegatedAgg,
    NegatedAtom,
    PositiveAgg,
    PositiveAtom,
    Rule,
    SetTerm,
    SetTermEntry,
    make_program,
)


def rename_literal(lit, name):
    if isinstance(lit, (PositiveAtom, NegatedAtom)):
        return type(lit)(name[lit.name])
    a = lit.agg
    entries = tuple(SetTermEntry(e.weights, tuple(name[x] for x in e.condition)) for e in a.term.entries)
    return type(lit)(AggregateAtom(a.func, SetTerm(entries), a.comparator, a.bound))


def renamed(p, name, rng):
    rules = [
        Rule(tuple(sorted(name[a] for a in r.head)), Conj(tuple(rename_literal(lit, name) for lit in r.body.items)))
        for r in p.rules
    ]
    rng.shuffle(rules)
    return make_program(tuple(rules))


def cells():
    """Every semantics under each operator it takes."""
    for name, (takes, _) in sem.SEMANTICS.items():
        if takes == sem.ANY_OPERATOR:
            for kind in ops.OperatorKind:
                yield name, kind
        else:
            yield name, None


def outcome(call):
    try:
        return call()
    except AftlabError as e:
        return type(e)


@settings(max_examples=100, deadline=None)
@given(
    atoms=st.integers(1, 4),
    rules=st.integers(1, 4),
    aggregate_probability=st.sampled_from((0.0, 0.5)),
    width=st.integers(1, 2),
    seed=st.integers(0, 10**6),
    rng=st.randoms(use_true_random=False),
)
def test_renaming_atoms_and_shuffling_rules_renames_every_answer(atoms, rules, aggregate_probability, width, seed, rng):
    p = generate_program(GeneratorConfig(
        atoms=atoms, rules=rules, aggregate_probability=aggregate_probability, disjunction_width=width, seed=seed,
    ))
    name = dict(zip(ATOM_POOL, rng.sample(ATOM_POOL, len(ATOM_POOL))))
    q = renamed(p, name, rng)

    def atoms_of(s):
        return frozenset(name[a] for a in s)

    def pair(i):
        return ApproxPair(atoms_of(i.lower), atoms_of(i.upper))

    def family(f):
        return frozenset(atoms_of(s) for s in f)

    for semantics, kind in cells():
        original = outcome(lambda: sem.run_semantics(semantics, p, kind))
        again = outcome(lambda: sem.run_semantics(semantics, q, kind))
        if isinstance(original, type):
            assert again is original, (p.text, semantics, kind)
        else:
            assert set(again.models) == {pair(m) for m in original.models}, (p.text, semantics, kind)
    for kind in ops.OperatorKind:
        for i in p.universe.consistent_pairs():
            value = outcome(lambda: ops.apply(kind, p, i))
            expected = value if isinstance(value, type) else NdPair(family(value.lower_set), family(value.upper_set))
            assert outcome(lambda: ops.apply(kind, q, pair(i))) == expected, (p.text, kind, i)
