"""Differential tests: the compiled rule bodies (two bitmasks plus aggregate
literals), the integer hitting-set enumeration and the kept program hash,
against direct readings of the program kept here as references."""

from __future__ import annotations

import pickle
import random

import pytest

from aftlab import four, operators as ops
from aftlab.four import Truth
from aftlab.generator import GeneratorConfig, generate_program
from aftlab.lattice import AftlabError, ApproxPair
from aftlab.program import (
    Conj,
    GeneralFormula,
    NegatedAtom,
    PositiveAtom,
    Rule,
    eval_body,
    literal_true,
    parse,
    trivial_aggregate_value,
)

FORMULA_PROGRAMS = (
    "p :- not (q & r) | s.\nq :- #u.\nr | s :- not not p & #c.\n",
    "p | q :- (p | not q) & not #false.\nq :- not p | #u.\nr :- q & #c | not r.\n",
    "a :- b.\nb :- not a & (c | #true).\nc | a :- not (b | #u).\n",
)


def seeded_aggregate_programs():
    for seed in range(24):
        yield generate_program(
            GeneratorConfig(atoms=2 + seed % 3, rules=3, aggregate_probability=0.6, seed=seed)
        )


def programs():
    return [*seeded_aggregate_programs(), *(parse(text) for text in FORMULA_PROGRAMS)]


def all_pairs(p):
    subsets = list(p.universe.subsets())
    return [ApproxPair(x, y) for x in subsets for y in subsets]


def formula_reading(rule: Rule, i: ApproxPair) -> four.Formula:
    """The body as a formula, each aggregate literal replaced by the constant
    of its trivial approximation at i."""
    if isinstance(rule.body, GeneralFormula):
        return rule.body.formula
    parts = []
    for lit in rule.body.items:
        if isinstance(lit, PositiveAtom):
            parts.append(four.Atom(lit.name))
        elif isinstance(lit, NegatedAtom):
            parts.append(four.Not(four.Atom(lit.name)))
        else:
            parts.append(four.Const(trivial_aggregate_value(i, lit)))
    return four.conj(parts)


def test_programs_cover_aggregates_and_formula_bodies():
    bodies = [r.body for p in programs() for r in p.rules]
    assert any(isinstance(b, GeneralFormula) for b in bodies)
    assert sum(isinstance(b, Conj) and any(not isinstance(lit, (PositiveAtom, NegatedAtom)) for lit in b.items)
               for b in bodies) >= 10


@pytest.mark.parametrize("threshold", [Truth.C, Truth.U])
def test_two_bit_head_selection_equals_the_formula_reading(threshold):
    for p in programs():
        for i in all_pairs(p):
            expected = frozenset(
                r.head_set()
                for r in p.rules
                if four.truth_leq_t(threshold, four.eval_pair(p.universe, i, formula_reading(r, i)))
            )
            assert ops._heads_at_least(p, i, threshold) == expected, (p.text, i)


def test_hd_equals_the_eval_body_filter_and_the_literal_reading():
    for p in programs():
        u = p.universe
        for x in u.subsets():
            assert ops.hd(p, x) == frozenset(r.head_set() for r in p.rules if eval_body(u, x, r))
            for r in p.rules:
                if isinstance(r.body, Conj):
                    expected = all(literal_true(u, x, lit) for lit in r.body.items)
                else:
                    expected = four.eval_two(u, x, r.body.formula) is Truth.T
                assert eval_body(u, x, r) == expected, (p.text, r, x)


def brute_force_hitting_sets(heads):
    union = sorted(frozenset().union(*heads))
    candidates = [frozenset(a for k, a in enumerate(union) if m >> k & 1) for m in range(1 << len(union))]
    return frozenset(c for c in candidates if all(c & delta for delta in heads))


def test_hitting_sets_equal_brute_force():
    rng = random.Random(7)
    pool = "pqrsab"
    families = [frozenset()]
    for _ in range(400):
        families.append(frozenset(
            frozenset(rng.sample(pool, rng.randint(1, 3))) for _ in range(rng.randint(1, 4))
        ))
    for heads in families:
        assert ops.hitting_sets(heads) == brute_force_hitting_sets(heads)
    assert ops.hitting_sets(frozenset()) == frozenset((frozenset(),))
    with pytest.raises(AftlabError):
        ops.hitting_sets(frozenset((frozenset("p"), frozenset())))


def test_memo_lookup_does_not_rehash_the_rules(monkeypatch):
    p = parse("p | q :- not r.\nr :- #sum{1:p; 2:q} > 1.\ns :- p, not q.\n")
    x = frozenset("p")
    first = ops.hd(p, x)
    calls = []
    rule_hash = Rule.__hash__

    def counting_hash(rule):
        calls.append(rule)
        return rule_hash(rule)

    monkeypatch.setattr(Rule, "__hash__", counting_hash)
    assert ops.hd(p, x) is first
    assert calls == []


def test_kept_hash_and_compiled_form_keep_value_equality():
    p = parse("p | q :- not r, #count{1:p; 1:q} >= 1.\ns :- not p.\n")
    hash(p)
    p.compile()
    again = parse(p.text)
    assert again == p and hash(again) == hash(p)
    assert {p: 1}[again] == 1
    copied = pickle.loads(pickle.dumps(p))
    assert copied == p and vars(copied) == {"rules": p.rules, "universe": p.universe}


def test_hd_reads_a_formula_body_two_valued():
    # #c has only its lower bit set, so its rule fires in the lower
    # four-valued head selection; but hd is two-valued and C is not T.
    p = parse("p :- #c.\nq :- #true.\n")
    for x in p.universe.subsets():
        assert ops.hd(p, x) == frozenset({frozenset({"q"})})
        assert four.eval_pair(p.universe, ApproxPair(x, x), four.Const(Truth.C)) is Truth.C
    assert ops.ic_lower_set(p, ApproxPair(frozenset(), frozenset())) == ops.hitting_sets(
        frozenset({frozenset({"p"}), frozenset({"q"})})
    )
