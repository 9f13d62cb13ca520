import itertools
import pickle
import random

import pytest

import reference as ref
from aftlab import laws, render
from aftlab.lattice import (
    AftlabError,
    _closure,
    _meets,
    _minimal,
    _tile,
    _truth_runs,
    _within,
    ApproxPair,
    AtomUniverse,
    CapExceededError,
    InconsistentPairError,
    NdPair,
    aprec_leq,
    atom_cap,
    bit_indices,
    difference,
    digit_planes,
    gap,
    hitting_row,
    hoare_leq,
    leq_i,
    leq_t,
    masks_above_i,
    minimal_bits,
    precision_code,
    row_columns,
    smyth_leq,
    up_closure,
)
from aftlab.program import parse
from aftlab.semantics import minimal_sets
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


@pytest.mark.parametrize("rel", [leq_t, leq_i])
def test_pair_orders_are_partial_orders(rel):
    pairs = ref.all_pairs(U4)
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
                assert digits.keys(1 << digits.number(x, y)) == [x << n | y]


@pytest.mark.parametrize("n", range(6))
def test_keys_give_the_marked_pairs_as_sorted_pair_keys(n):
    """`DigitPlanes.keys` reads the pair numbers of a plane's set bits as the
    keys x << n | y of those pairs, in increasing order: the full and total
    planes, the empty one, and random subsets of the consistent pairs."""
    digits, rng = digit_planes(n), random.Random(n)
    consistent = [x << n | y for x in range(1 << n) for y in range(1 << n) if not x & ~y]
    assert digits.keys(digits.full) == consistent == list(laws._consistent(n))
    assert consistent == [x << n | y for x, y in masks_above_i(0, (1 << n) - 1)]
    assert digits.keys(digits.total) == [z << n | z for z in range(1 << n)]
    assert digits.keys(0) == []
    for _ in range(20):
        chosen = sorted(rng.sample(consistent, rng.randint(0, len(consistent))))
        plane = sum(1 << digits.number(k >> n, k & (1 << n) - 1) for k in chosen)
        assert digits.keys(plane) == chosen


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
        marked = [(k >> n, k & (1 << n) - 1) for k in digits.keys(plane)]
        below = [(x, y) for x, y in marked if not any((w, z) != (x, y) and not w & ~x and not z & ~y for w, z in marked)]
        assert digits.keys(digits.minimal_t(plane)) == [x << n | y for x, y in below]


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
        assert [u.pair(*m) for m in masks_above_i(u.mask(i.lower), u.mask(i.upper))] == [j for j in pairs if leq_i(i, j)]


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
    codes = [precision_code(n, u.row(v.lower_set), u.row(v.upper_set)) for v in values]
    for v, c in zip(values, codes):
        for m, s in enumerate(u.subsets()):
            assert (c.members >> m & 1, c.members >> (size + m) & 1) == (s in v.lower_set, s in v.upper_set)
            assert c.allowed >> m & 1 == smyth_leq(v.lower_set, frozenset((s,)))
            assert c.allowed >> (size + m) & 1 == hoare_leq(frozenset((s,)), v.upper_set)
        assert not c.members >> 2 * size and not c.allowed >> 2 * size
    for a, ca in zip(values, codes):
        for b, cb in zip(values, codes):
            assert aprec_leq(a, b) == (not cb.members & ~ca.allowed)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_hitting_rows_give_the_hitting_sets_of_every_head_family(n):
    """Every family of non-empty heads over n atoms: the row decodes to the
    subsets of the heads' union meeting every head, and encodes back."""
    u = AtomUniverse.of("pqr"[:n])
    heads = range(1, 1 << n)
    for family in range(1 << len(heads)):
        chosen = [h for k, h in enumerate(heads) if family >> k & 1]
        row = hitting_row(n, chosen)
        expected = ref.hitting_sets(frozenset(u.unmask(h) for h in chosen))
        assert u.family(row) == expected and u.row(expected) == row, chosen
    with pytest.raises(AftlabError, match="empty head set has no hitting sets"):
        hitting_row(n, [0])


def closure_rows(n):
    """Every row at n <= 3; at n = 4 seeded rows, each with a second row
    that adds some sets of its up-closure, so that the two share it."""
    if n <= 3:
        return list(range(1 << (1 << n)))
    rng, rows = random.Random(n), []
    for _ in range(150):
        row = rng.getrandbits(1 << n) & rng.getrandbits(1 << n)
        rows += [row, row | up_closure(n, row) & rng.getrandbits(1 << n)]
    return rows


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_up_closures_give_the_smyth_test_and_decide_equal_minimal_sets(n):
    """Bit x of a row's up-closure is the Smyth test of its sets against
    {x}; `minimal_bits` gives the minimal sets; and over every pair of rows,
    two rows have the same minimal sets iff they have the same up-closure."""
    u = AtomUniverse.of("pqrs"[:n])
    rows = closure_rows(n)
    minimal, closed = [], []
    for row in rows:
        sets = u.family(row)
        minimal.append(minimal_sets(sets))
        closed.append(up_closure(n, row))
        assert [u.unmask(m) for m in minimal_bits(n, row)] == sorted(minimal[-1], key=u.mask)
        assert [closed[-1] >> x & 1 for x in range(1 << n)] == [smyth_leq(sets, {x}) for x in u.subsets()]
    for a, b in itertools.combinations(range(len(rows)), 2):
        assert (minimal[a] == minimal[b]) == (closed[a] == closed[b]), (rows[a], rows[b])
    assert n < 4 or sum(rows[k] != rows[k + 1] for k in range(0, len(rows), 2)) >= 50


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
    assert {m for m in u.__dict__["_sets"] if isinstance(m, int)} == {0, 1, full}


def test_bit_indices():
    assert bit_indices(0) == []
    assert bit_indices(1) == [0]
    assert bit_indices(0b1011000) == [3, 4, 6]
    assert bit_indices(1 << 700 | 1 << 3) == [3, 700]


@pytest.mark.parametrize("size", [0, 1, 5, 8, 27, 64, 81])
def test_tile_repeats_the_block_every_period_bits_cut_at_size(size):
    for period in range(1, 10):
        for block in range(1 << period):
            expected = sum(1 << k for k in range(size) if block >> k % period & 1)
            assert _tile(block, period, size) == expected, (block, period)


def kit_cases(n, elements, sets):
    """Brute-force the kit on one space: `elements` lists its bits, `sets`
    gives the set of atoms (as a mask over the space's atoms) of each bit,
    and `inside[i]` must mark the bits whose set holds atom i."""
    full = sum(1 << e for e in elements)
    inside = [sum(1 << e for e in elements if sets(e) >> i & 1) for i in range(n)]
    for m in range(1 << n):
        assert _within(m, inside, full) == sum(1 << e for e in elements if not m & ~sets(e)), m
        assert _meets(m, inside) == sum(1 << e for e in elements if m & sets(e)), m
    return full, inside


def kit_marks(elements, rng, count):
    """Seeded random subsets of the elements, of several densities, and the
    empty and the full one."""
    yield 0
    yield sum(1 << e for e in elements)
    for density in (0.1, 0.3, 0.6):
        for _ in range(count):
            yield sum(1 << e for e in elements if rng.random() < density)


def closure_and_minimal(marks, elements, below):
    """The brute-force closure (the elements with a marked element below or
    at them) and minimal marks (marked, with none strictly below), for the
    strict order `below(a, b)`."""
    marked = [e for e in elements if marks >> e & 1]
    closed = sum(1 << e for e in elements if any(a == e or below(a, e) for a in marked))
    minimal = sum(1 << e for e in marked if not any(below(a, e) for a in marked))
    return closed, minimal


@pytest.mark.parametrize("n", range(5))
def test_the_kit_on_rows_equals_brute_force(n):
    """Rows over the 2^n sets: `row_columns`, and `_within`, `_meets`,
    `_closure` and `_minimal` on the runs (2^i, sets with atom i), whose
    closure is the up-closure under the subset order."""
    sets = range(1 << n)
    full, without, inside = row_columns(n)
    assert (full, list(inside)) == kit_cases(n, sets, lambda m: m)
    assert without == tuple(full ^ w for w in inside)
    runs = tuple((1 << i, with_i) for i, with_i in enumerate(inside))
    marks = range(1 << (1 << n)) if n <= 3 else kit_marks(sets, random.Random(n), 30)
    for row in marks:
        closed, minimal = closure_and_minimal(row, sets, lambda a, b: a != b and not a & ~b)
        assert (_closure(row, runs), _minimal(row, runs)) == (closed, minimal), row
        assert (up_closure(n, row), minimal_bits(n, row)) == (closed, bit_indices(minimal))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_kit_on_planes_equals_brute_force(n):
    """Planes over the consistent pairs, each bit read by `DigitPlanes.number`:
    the digit columns, `_within` and `_meets` on x (`d2`) and on y (not `d0`),
    and `_closure` and `_minimal` on the runs of `below_y` (atoms stepping
    up into y - x), of `minimal_x` (into x) and of `minimal_t` (one run per
    atom, `_truth_runs`, closed along twice over: any step up the truth
    order)."""
    digits, rng = digit_planes(n), random.Random(n)
    pairs = {digits.number(x, y): (x, y) for x in range(1 << n) for y in range(1 << n) if not x & ~y}
    elements = sorted(pairs)
    assert elements == list(range(3**n))
    for i in range(n):
        for k, (x, y) in pairs.items():
            digit = (x >> i & 1) + (y >> i & 1)
            assert [d[i] >> k & 1 for d in (digits.d0, digits.d1, digits.d2)] == [digit == d for d in range(3)]
    assert (digits.full, list(digits.d2)) == kit_cases(n, elements, lambda k: pairs[k][0])
    assert (digits.full, [digits.full ^ d for d in digits.d0]) == kit_cases(n, elements, lambda k: pairs[k][1])
    steps = digits.steps
    orders = {
        tuple(zip(steps, digits.d1)): lambda a, b: a[0] == b[0] and a[1] != b[1] and not a[1] & ~b[1],
        tuple(zip(steps, digits.d2)): lambda a, b: a[1] == b[1] and a[0] != b[0] and not a[0] & ~b[0],
    }
    truth = lambda a, b: a != b and not a[0] & ~b[0] and not a[1] & ~b[1]
    for plane in kit_marks(elements, rng, 20):
        for runs, below in orders.items():
            closed, minimal = closure_and_minimal(plane, elements, lambda a, b: below(pairs[a], pairs[b]))
            assert (_closure(plane, runs), _minimal(plane, runs)) == (closed, minimal), plane
        closed, minimal = closure_and_minimal(plane, elements, lambda a, b: truth(pairs[a], pairs[b]))
        runs = _truth_runs(n)
        assert (_closure(_closure(plane, runs), runs), _minimal(plane, runs, 2)) == (closed, minimal), plane
        assert digits.minimal_t(plane) == minimal
        assert digits.below_y(plane) == _closure(plane, tuple(zip(steps, digits.d1)))
        assert digits.minimal_x(plane) == _minimal(plane, tuple(zip(steps, digits.d2)))
        assert digits.minimal_y(plane) == _minimal(plane, tuple(zip(steps, digits.d1)))
