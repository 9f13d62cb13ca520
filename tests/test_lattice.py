import itertools

import pytest

from aftlab.lattice import (
    ApproxPair,
    AtomUniverse,
    CapExceededError,
    InconsistentPairError,
    NdPair,
    aprec_leq,
    atom_cap,
    difference,
    gap,
    hoare_leq,
    leq_i,
    leq_t,
    masks_above_i,
    masks_below_t,
    smyth_leq,
)
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
        below = [u.pair(*m) for m in masks_below_t(*u.pair_key(i))]
        assert len(below) == len(set(below))
        assert set(below) == {j for j in pairs if leq_t(j, i)}


def test_consistent_pairs_cap():
    with pytest.raises(CapExceededError):
        list(U4.consistent_pairs(cap=3))


def test_atom_cap_env(monkeypatch):
    monkeypatch.delenv("AFTLAB_MAX_ATOMS", raising=False)
    assert atom_cap() == 12
    monkeypatch.setenv("AFTLAB_MAX_ATOMS", "5")
    assert atom_cap() == 5
    assert atom_cap(7) == 7
