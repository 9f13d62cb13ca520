import itertools
import pickle
import random

import pytest

from aftlab import render
from aftlab.lattice import (
    ApproxPair,
    AtomUniverse,
    CapExceededError,
    InconsistentPairError,
    NdPair,
    aprec_leq,
    atom_cap,
    difference,
    digit_planes,
    gap,
    hoare_leq,
    leq_i,
    leq_t,
    masks_above_i,
    precision_code,
    smyth_leq,
)
from aftlab.program import parse
from conftest import atoms, pair


U2 = AtomUniverse.of(["p", "q"])
U4 = AtomUniverse.of(["p", "q", "r", "s"])


def test_leq_t_examples():
    assert leq_t(pair("", "q"), pair("p", "p,q"))
    assert leq_t(pair("p", "q"), pair("p", "q"))
    assert not leq_t(pair("p", ""), pair("", "p"))


def test_leq_i_examples():
    assert leq_i(pair("", "p,q"), pair("p", "p"))
    assert not leq_i(pair("p", "p"), pair("", "p,q"))
    assert leq_i(pair("p", "q"), pair("p", "q"))


def test_smyth_examples():
    assert smyth_leq(frozenset({atoms("p"), atoms("q")}), frozenset({atoms("p", "q")}))
    assert smyth_leq(frozenset({atoms()}), frozenset({atoms("p"), atoms("q", "r")}))
    assert not smyth_leq(frozenset({atoms("p", "q")}), frozenset({atoms("q")}))


def test_hoare_examples():
    assert hoare_leq(frozenset({atoms("p")}), frozenset({atoms("p", "q"), atoms("r")}))
    family = frozenset({atoms("p"), atoms("q", "r")})
    assert hoare_leq(family, family)
    assert not hoare_leq(frozenset({atoms("p"), atoms("r")}), frozenset({atoms("p")}))


def test_aprec_least_precise_element():
    least = NdPair(frozenset({atoms()}), frozenset({U2.full()}))
    for x in U2.subsets():
        for y in U2.subsets():
            assert aprec_leq(least, NdPair(frozenset({x}), frozenset({y})))
    some = NdPair(frozenset({atoms("p")}), frozenset({atoms("q")}))
    assert aprec_leq(some, some)


def _all_pairs(u):
    return [ApproxPair(x, y) for x in u.subsets() for y in u.subsets()]


@pytest.mark.parametrize("rel", [leq_t, leq_i])
def test_pair_orders_are_partial_orders(rel):
    pairs = _all_pairs(U4)
    above = {a: {b for b in pairs if rel(a, b)} for a in pairs}
    for a in pairs:
        assert a in above[a]  # reflexive
        for b in above[a]:
            if a in above[b]:
                assert a == b  # antisymmetric
            assert above[b] <= above[a]  # transitive


def test_set_orders_are_reflexive_preorders():
    families = [
        frozenset({atoms()}),
        frozenset({atoms("p")}),
        frozenset({atoms("p"), atoms("q")}),
        frozenset({atoms("p", "q"), atoms("q")}),
    ]
    for fam in families:
        assert smyth_leq(fam, fam)
        assert hoare_leq(fam, fam)
    for a, b, c in itertools.product(families, repeat=3):
        if smyth_leq(a, b) and smyth_leq(b, c):
            assert smyth_leq(a, c)
        if hoare_leq(a, b) and hoare_leq(b, c):
            assert hoare_leq(a, c)


def test_difference_examples():
    assert difference(atoms("p", "q", "s"), atoms()) == atoms("p", "q", "s")
    assert difference(atoms("p"), atoms("p")) == atoms()
    assert difference(atoms("q", "p"), atoms("q")) == atoms("p")


def test_difference_is_the_unique_lattice_difference():
    subsets = list(U4.subsets())
    for x in subsets:
        for y in subsets:
            d = difference(y, x)
            assert not d & x
            assert x | y == x | d
            witnesses = [z for z in subsets if not z & x and x | y == x | z]
            assert witnesses == [d]


def test_gap_antimonotone_in_information_order():
    pairs = [i for i in U4.consistent_pairs()]
    for a in pairs:
        for b in pairs:
            if leq_i(a, b):
                assert gap(b) <= gap(a)


def test_gap_converse_fails():
    a = ApproxPair(atoms("r"), atoms("r", "q"))
    b = ApproxPair(atoms("p"), atoms("p"))
    assert gap(b) < gap(a)
    assert not leq_i(a, b) and not leq_i(b, a)


def test_interval_examples():
    u = U2
    assert list(u.interval(atoms(), atoms("p", "q"))) == [
        atoms(),
        atoms("p"),
        atoms("q"),
        atoms("p", "q"),
    ]
    assert list(u.interval(atoms("p"), atoms("p"))) == [atoms("p")]
    assert list(u.interval(atoms("p"), atoms("p", "q"))) == [atoms("p"), atoms("p", "q")]
    with pytest.raises(InconsistentPairError):
        list(u.interval(atoms("p"), atoms("q")))


def test_interval_counts():
    for x in U4.subsets():
        for y in U4.subsets():
            if x <= y:
                members = list(U4.interval(x, y))
                assert len(members) == 2 ** len(y - x)
                assert len(set(members)) == len(members)
                assert all(x <= z <= y for z in members)


@pytest.mark.parametrize("n", range(5))
def test_the_number_of_a_pair_marks_that_pair_alone(n):
    digits = digit_planes(n)
    for x in range(1 << n):
        for y in range(1 << n):
            if not x & ~y:
                assert list(digits.pairs(1 << digits.number(x, y))) == [(x, y)]


@pytest.mark.parametrize("n", range(5))
def test_minimal_t_keeps_the_truth_minimal_marked_pairs(n):
    """Every plane for n <= 2, random ones of several densities above."""
    digits, rng = digit_planes(n), random.Random(n)
    numbers = [digits.number(x, y) for x in range(1 << n) for y in range(1 << n) if not x & ~y]
    if n <= 2:
        planes = range(1 << 3**n)
    else:
        planes = [sum(1 << k for k in numbers if rng.random() < density)
                  for density in (0.05, 0.1, 0.2, 0.3, 0.5, 0.7) for _ in range(20)]
    for plane in planes:
        marked = list(digits.pairs(plane))
        below = [(x, y) for x, y in marked if not any((w, z) != (x, y) and not w & ~x and not z & ~y for w, z in marked)]
        assert list(digits.pairs(digits.minimal_t(plane))) == below


def test_consistent_pairs_enumeration():
    u1 = AtomUniverse.of(["p"])
    assert list(u1.consistent_pairs()) == [pair(), pair("", "p"), pair("p", "p")]
    assert len(list(U2.consistent_pairs())) == 9
    assert list(AtomUniverse.of([]).consistent_pairs()) == [pair()]
    assert len(list(U4.consistent_pairs())) == 3**4


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mask_enumerations_equal_the_order_scans(n):
    u = AtomUniverse.of("pqrs"[:n])
    pairs = list(u.consistent_pairs())
    assert [u.pair(*m) for m in u.consistent_masks()] == pairs
    for i in pairs:
        assert [u.pair(*m) for m in masks_above_i(*u.pair_key(i))] == [j for j in pairs if leq_i(i, j)]


def test_atom_cap_env(monkeypatch):
    monkeypatch.delenv("AFTLAB_MAX_ATOMS", raising=False)
    assert atom_cap() == 12
    monkeypatch.setenv("AFTLAB_MAX_ATOMS", "5")
    assert atom_cap() == 5
    assert atom_cap(7) == 7


def families(u, rng, count):
    """The empty family, {∅}, every set, and `count` seeded random families."""
    subsets = list(u.subsets())
    yield frozenset()
    yield frozenset((frozenset(),))
    yield frozenset(subsets)
    for _ in range(count):
        yield frozenset(rng.sample(subsets, rng.randint(0, len(subsets))))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_precision_code_decides_aprec_leq(n):
    u = AtomUniverse.of("pqrs"[:n])
    size = 1 << n
    fams = list(families(u, random.Random(n), 12))
    values = [NdPair(a, b) for a in fams for b in fams]
    codes = [precision_code(u, v) for v in values]
    for v, c in zip(values, codes):
        for m, s in enumerate(u.subsets()):
            assert (c.members >> m & 1, c.members >> (size + m) & 1) == (s in v.lower_set, s in v.upper_set)
            assert c.allowed >> m & 1 == smyth_leq(v.lower_set, frozenset((s,)))
            assert c.allowed >> (size + m) & 1 == hoare_leq(frozenset((s,)), v.upper_set)
        assert not c.members >> 2 * size and not c.allowed >> 2 * size
    for a, ca in zip(values, codes):
        for b, cb in zip(values, codes):
            assert aprec_leq(a, b) == (not cb.members & ~ca.allowed)


def test_unmask_keeps_one_set_per_mask():
    u = AtomUniverse.of("pqrs")
    for m in range(16):
        s = u.unmask(m)
        assert u.unmask(m) is s
        assert s == frozenset(a for i, a in enumerate(u.atoms) if m >> i & 1)
    assert all(z is u.unmask(u.mask(z)) for z in u.subsets())
    assert all(z is u.unmask(u.mask(z)) for z in u.interval(atoms("q"), atoms("p", "q", "s")))
    i = u.pair(1, 3)
    assert i.lower is u.unmask(1) and i.upper is u.unmask(3)


def test_a_pickled_universe_leaves_its_sets_behind():
    u = AtomUniverse.of(["p", "q"])
    u.unmask(3)
    copied = pickle.loads(pickle.dumps(u))
    assert copied == u and hash(copied) == hash(u)
    assert "_sets" not in copied.__dict__ and "_bits" not in copied.__dict__
    assert copied.unmask(3) == atoms("p", "q") and copied.mask(["q"]) == 2


def test_a_universe_above_the_cap_renders_without_filling_its_sets():
    names = [f"a{k:02}" for k in range(23)]
    p = parse("\n".join(f"{a} :- not {b}." for a, b in zip(names, names[1:] + names[:1])))
    u = p.universe
    assert len(u) == 23
    with pytest.raises(CapExceededError):
        p.compile()
    full = (1 << 23) - 1
    assert render.fmt_pair(u, u.pair(0, full)) == "(∅, {" + ",".join(names) + "})"
    assert render.json_pair(u, u.pair(1, full))["lower"] == ["a00"]
    assert p.text.startswith("a00 :- not a01.")
    assert len(u.__dict__["_sets"]) == 3
