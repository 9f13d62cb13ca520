import itertools
import random

import pytest
from hypothesis import given, strategies as st

import reference as ref
from aftlab import corpus, four
from aftlab.four import And, Atom, Const, Not, Or, Truth
from aftlab.generator import GeneratorConfig, generate_program
from aftlab.lattice import ApproxPair, AtomUniverse, InconsistentPairError, UnknownAtomError, digit_planes
from aftlab.program import body_formula, classify
from aftlab import semantics as sem
from conftest import atoms, pair

U2 = AtomUniverse.of(["p", "q"])
U3 = AtomUniverse.of(["b", "c", "p"])


def test_information_order():
    for v in (Truth.F, Truth.T):
        assert ref.truth_leq_i(Truth.U, v)
        assert ref.truth_leq_i(v, Truth.C)
    assert not ref.truth_leq_i(Truth.F, Truth.T)
    assert not ref.truth_leq_i(Truth.T, Truth.F)


def test_truth_order():
    for v in (Truth.C, Truth.U):
        assert ref.truth_leq_t(Truth.F, v)
        assert ref.truth_leq_t(v, Truth.T)
    assert not ref.truth_leq_t(Truth.C, Truth.U)
    assert not ref.truth_leq_t(Truth.U, Truth.C)


def test_negation():
    assert four.neg(Truth.T) is Truth.F
    assert four.neg(Truth.F) is Truth.T
    assert four.neg(Truth.C) is Truth.C
    assert four.neg(Truth.U) is Truth.U


def test_truth_lattice_meets_joins():
    assert four.glb_t(Truth.C, Truth.U) is Truth.F
    assert four.lub_t(Truth.C, Truth.U) is Truth.T
    for a, b in itertools.product(Truth, repeat=2):
        assert ref.truth_leq_t(four.glb_t(a, b), a)
        assert ref.truth_leq_t(a, four.lub_t(a, b))


F, U, C, T = Truth.F, Truth.U, Truth.C, Truth.T

# Rows a, columns b, both in the order F, U, C, T.
GLB_T = [[F, F, F, F], [F, U, F, U], [F, F, C, C], [F, U, C, T]]
LUB_T = [[F, U, C, T], [U, U, T, T], [C, T, C, T], [T, T, T, T]]
LEQ_T = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
LEQ_I = [[1, 0, 1, 0], [1, 1, 1, 1], [0, 0, 1, 0], [0, 0, 1, 1]]


def test_truth_values_are_their_bits():
    assert list(Truth) == [F, U, C, T]
    assert [str(v) for v in Truth] == ["F", "U", "C", "T"]
    assert [v.value for v in Truth] == [0b00, 0b01, 0b10, 0b11]


def test_connectives_and_orders_on_all_sixteen_pairs():
    assert [four.neg(v) for v in Truth] == [T, U, C, F]
    for (ia, a), (ib, b) in itertools.product(enumerate(Truth), repeat=2):
        assert four.glb_t(a, b) is GLB_T[ia][ib], (a, b)
        assert four.lub_t(a, b) is LUB_T[ia][ib], (a, b)
        assert ref.truth_leq_t(a, b) is bool(LEQ_T[ia][ib]), (a, b)
        assert ref.truth_leq_i(a, b) is bool(LEQ_I[ia][ib]), (a, b)


def test_eval_atom_table():
    p = Atom("p")
    assert four.eval_pair(U2, pair("p", "p"), p) is Truth.T
    assert four.eval_pair(U2, pair("", "p"), p) is Truth.U
    assert four.eval_pair(U2, pair("", ""), p) is Truth.F
    assert four.eval_pair(U2, pair("p", ""), p) is Truth.C


def test_eval_examples():
    u = AtomUniverse.of(["b", "c"])
    assert four.eval_pair(u, pair("", "c"), Not(Atom("c"))) is Truth.U
    assert four.eval_pair(U2, pair("", "p"), And(Atom("p"), Not(Atom("p")))) is Truth.U
    assert four.eval_pair(U2, pair("", ""), Const(Truth.T)) is Truth.T


def test_eval_two_examples():
    assert four.eval_two(U2, atoms(), Not(Atom("q"))) is Truth.T
    assert four.eval_two(U2, atoms("q"), Not(Atom("q"))) is Truth.F
    assert four.eval_two(U2, atoms(), Const(Truth.T)) is Truth.T


def test_eval_unknown_atom():
    with pytest.raises(UnknownAtomError):
        four.eval_pair(U2, pair(), Atom("zz"))


def _formulas(universe, depth):
    leaves = [Atom(a) for a in universe.atoms] + [Const(v) for v in Truth]
    layers = [leaves]
    for _ in range(depth):
        prev = layers[-1]
        nxt = [Not(f) for f in prev]
        nxt += [And(f, g) for f in prev for g in leaves]
        nxt += [Or(f, g) for f in prev for g in leaves]
        layers.append(nxt)
    return [f for layer in layers for f in layer]


def _formula_strategy(names, max_depth=3, consts=tuple(Truth)):
    base = st.one_of(
        st.sampled_from([Atom(n) for n in names]),
        st.sampled_from([Const(v) for v in consts]),
    )
    return st.recursive(
        base,
        lambda children: st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda ab: And(*ab)),
            st.tuples(children, children).map(lambda ab: Or(*ab)),
        ),
        max_leaves=2**max_depth,
    )


def test_eval_information_monotone_exhaustive():
    pairs = list(U2.consistent_pairs())
    comparable = [(a, b) for a in pairs for b in pairs if a.lower <= b.lower and b.upper <= a.upper]
    for f in _formulas(U2, 2):
        for a, b in comparable:
            assert ref.truth_leq_i(four.eval_pair(U2, a, f), four.eval_pair(U2, b, f))


@given(_formula_strategy(("b", "c", "p")), st.data())
def test_eval_information_monotone_random(f, data):
    pairs = list(U3.consistent_pairs())
    a = data.draw(st.sampled_from(pairs))
    b = data.draw(st.sampled_from([i for i in pairs if a.lower <= i.lower and i.upper <= a.upper]))
    assert ref.truth_leq_i(four.eval_pair(U3, a, f), four.eval_pair(U3, b, f))


@given(_formula_strategy(("b", "c", "p"), consts=(Truth.T, Truth.F)), st.data())
def test_total_pairs_are_two_valued(f, data):
    x = data.draw(st.sampled_from(list(U3.subsets())))
    assert four.eval_two(U3, x, f) in (Truth.T, Truth.F)


@given(_formula_strategy(("b", "c", "p")), _formula_strategy(("b", "c", "p")), st.data())
def test_de_morgan(f, g, data):
    i = data.draw(st.sampled_from(list(U3.consistent_pairs())))
    assert four.eval_pair(U3, i, Not(And(f, g))) == four.eval_pair(U3, i, Or(Not(f), Not(g)))


@given(_formula_strategy(("b", "c", "p"), consts=(Truth.T, Truth.F)), st.data())
def test_ht_collapses_to_classical_on_total_pairs(f, data):
    y = data.draw(st.sampled_from(list(U3.subsets())))
    total = ApproxPair(y, y)
    assert four.ht_satisfies(U3, total, f) == (four.eval_two(U3, y, f) is Truth.T)


def test_ht_examples():
    u = AtomUniverse.of(["b", "c"])
    assert not four.ht_satisfies(u, pair("", "c"), Not(Atom("c")))
    assert four.ht_satisfies(U2, pair("p", "p,q"), Atom("p"))
    assert not four.ht_satisfies(U2, pair("", "p"), Atom("p"))
    u3 = AtomUniverse.of(["p", "q", "s"])
    assert four.ht_satisfies(u3, ApproxPair(atoms("q"), atoms("q", "p")), Not(Atom("s")))


def test_ht_requires_consistency():
    with pytest.raises(InconsistentPairError):
        four.ht_satisfies(U2, pair("p", ""), Atom("p"))


def test_ht_rule_examples():
    u = AtomUniverse.of(["b", "c"])
    assert four.ht_satisfies_rule(u, pair("", "c"), Not(Atom("c")), ("b",))
    assert four.ht_satisfies_rule(U2, pair("p", "p,q"), Atom("p"), ("p",))
    u3 = AtomUniverse.of(["p", "q", "s"])
    i = ApproxPair(atoms("q"), atoms("q", "p"))
    assert four.ht_satisfies_rule(u3, i, Not(Atom("p")), ("p",))


def test_ht_rule_rejects_empty_head():
    with pytest.raises(Exception):
        four.ht_satisfies_rule(U2, pair(), Const(Truth.T), ())


def _seeded_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(names)) if rng.random() < 0.85 else Const(rng.choice((Truth.T, Truth.F)))
    shape = rng.choice((Not, And, Or))
    if shape is Not:
        return Not(_seeded_formula(rng, names, depth - 1))
    return shape(_seeded_formula(rng, names, depth - 1), _seeded_formula(rng, names, depth - 1))


def ht_rule_cases():
    """(universe, body, head) for every rule of the corpus's plain programs,
    of seeded plain programs, and of seeded rules with general formula
    bodies over two-valued constants."""
    plain = [p for p in corpus.programs() if classify(p).plain]
    plain += [generate_program(GeneratorConfig(atoms=1 + seed % 4, rules=3, seed=seed)) for seed in range(24)]
    for p in plain:
        for r in p.rules:
            yield p.universe, body_formula(r), r.head
    rng = random.Random(26)
    names = U3.atoms
    for _ in range(60):
        yield U3, _seeded_formula(rng, names, 4), tuple(rng.sample(names, rng.randint(1, 2)))


def test_ht_rule_halves_equal_ht_satisfies_rule():
    """The referee's `ht_rule`, its HT half and its classical half, agrees
    with `four.ht_satisfies_rule` at every consistent pair (x, y), on plain,
    seeded and general-formula rules."""
    cases = 0
    for u, body, head in ht_rule_cases():
        for i in u.consistent_pairs():
            assert four.ht_satisfies_rule(u, i, body, head) == ref.ht_rule(u, i, body, head), (body, head, i)
            cases += 1
    assert cases > 1000


@pytest.mark.parametrize("n", range(6))
def test_ht_tables_agree_with_eval_two_and_ht_satisfies_at_every_key(n):
    """At the number of each consistent pair (x, y) (`DigitPlanes.number`)
    the classical plane is `eval_two` at y and the HT plane `ht_satisfies`
    at (x, y), on seeded formulas with T and F constants and on nested
    negations; n = 0 has the one pair (∅, ∅), number 0."""
    u, digits = AtomUniverse.of("bcpqr"[:n]), digit_planes(n)
    rng = random.Random(38 + n)
    formulas = [_seeded_formula(rng, u.atoms, 4) for _ in range(40 if n else 0)]
    formulas += [Const(Truth.T), Const(Truth.F), Not(Not(Const(Truth.F))), Or(Const(Truth.F), Not(Const(Truth.T)))]
    formulas += [Not(Not(Atom(a))) for a in u.atoms] + [Not(And(Atom(a), Not(Atom(a)))) for a in u.atoms]
    checked = 0
    for f in formulas:
        classical, here = four.ht_tables(u, f)
        assert 0 <= classical <= digits.full and 0 <= here <= digits.full
        for xm, ym in u.consistent_masks():
            k, x, y = digits.number(xm, ym), u.unmask(xm), u.unmask(ym)
            assert classical >> k & 1 == (four.eval_two(u, y, f) is Truth.T), (f, x, y)
            assert here >> k & 1 == four.ht_satisfies(u, ApproxPair(x, y), f), (f, x, y)
            checked += 1
    assert checked == len(formulas) * 3**n


def test_ht_tables_of_constants_and_unknown_atoms():
    empty = AtomUniverse.of([])
    assert four.ht_tables(empty, Const(Truth.T)) == (1, 1)
    assert four.ht_tables(empty, Const(Truth.F)) == (0, 0)
    assert four.ht_tables(empty, Not(Const(Truth.F))) == (1, 1)
    assert four.ht_tables(U2, Not(Const(Truth.T))) == (0, 0)
    assert four.ht_tables(U2, Const(Truth.T)) == ((1 << 9) - 1,) * 2
    for f in (Atom("zz"), And(Atom("p"), Not(Atom("zz"))), Or(Const(Truth.T), Atom("zz"))):
        with pytest.raises(UnknownAtomError):
            four.ht_tables(U2, f)
        with pytest.raises(UnknownAtomError):
            four.eval_pair(U2, pair(), f)


def test_three_valued_models_are_ht_models():
    # strictness witness: (0,{c}) is an HT model of {b :- not c.} but no model
    from aftlab.program import parse

    witness = parse("b :- not c.")
    i = ApproxPair(atoms(), atoms("c"))
    assert four.ht_satisfies_rule(witness.universe, i, Not(Atom("c")), ("b",))
    assert not sem.is_model(witness, i)
    for seed in range(40):
        cfg = GeneratorConfig(atoms=3, rules=1 + seed % 3, seed=seed)
        p = generate_program(cfg)
        if classify(p).has_aggregates:
            continue
        for i in p.universe.consistent_pairs():
            if sem.is_model(p, i):
                assert all(
                    four.ht_satisfies_rule(p.universe, i, body_formula(r), r.head)
                    for r in p.rules
                )
