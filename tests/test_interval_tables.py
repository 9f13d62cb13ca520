"""Differential tests: the sweeps of every operator, which read bit planes
kept per program and distinct set of planes, and the complete stable values
of the four-valued ones (`ic`, `ic-triv`), which read rows over the sets of
one side with the other side fixed, kept per program, side and key, against
definitional sweeps kept here that read the operators' families through
`operators.apply`; the deterministic stable pairs against least-fixpoint
loops over the atoms derived everywhere and somewhere in an interval
(`det_lower`, `det_upper`, kept here); and Kripke-Kleene
against the iteration of `operators.dmt_det`. `dmt-det` reads the planes of
`dmt`, so `dmt` is checked to be `dmt-det` lifted to singletons wherever the
heads are atomic."""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations
from operator import and_, or_

import pytest

from aftlab import corpus, four, operators as ops, semantics as sem
from aftlab.generator import GeneratorConfig, generate_program
from aftlab.lattice import AftlabError, ApproxPair, AtomUniverse, digit_planes, leq_i, smyth_leq
from aftlab.operators import OperatorKind
from aftlab.program import GeneralFormula, NegatedAgg, NegatedAtom, PositiveAgg, ProgramClassError, make_program, parse

INTERVAL_KINDS = (OperatorKind.DMT, OperatorKind.ULTIMATE, OperatorKind.GZ, OperatorKind.DMT_DET)
FOUR_VALUED_KINDS = (OperatorKind.IC, OperatorKind.IC_TRIV)
GENERAL_BODY = "p :- not (q & r) | s.\nq :- #u.\nr | s :- not not p & #c.\n"


def seeded_programs():
    """n = 1..5, alternately atomic and disjunctive heads, without aggregates,
    with positive aggregates and with negated ones as well."""
    for seed in range(45):
        yield generate_program(
            GeneratorConfig(
                atoms=1 + seed % 5,
                rules=1 + seed % 4,
                negation_probability=0.4,
                aggregate_probability=(0.0, 0.5, 0.7)[seed % 3],
                disjunction_width=1 + seed // 5 % 2,
                seed=seed,
            )
        )


PROGRAMS = [*seeded_programs(), *corpus.programs(), parse(GENERAL_BODY)]


def cases():
    for p in PROGRAMS:
        for kind in (*INTERVAL_KINDS, *FOUR_VALUED_KINDS):
            if kind is OperatorKind.DMT_DET and any(len(r.head) > 1 for r in p.rules):
                continue
            if kind is OperatorKind.IC and p.compile().classification.has_aggregates:
                continue
            yield p, kind


def consistent_pairs(p):
    subsets = list(p.universe.subsets())
    return [ApproxPair(x, y) for x in subsets for y in subsets if x <= y]


def minimal(sets):
    return {s for s in sets if not any(t < s for t in sets)}


def in_domain(kind, x, y):
    """The four-valued operators are total; the others are read only on
    consistent pairs."""
    return kind in FOUR_VALUED_KINDS or x <= y


def ref_lower_stable(kind, p, y):
    return minimal({
        x for x in p.universe.subsets() if in_domain(kind, x, y) and x in ops.apply(kind, p, ApproxPair(x, y)).lower_set
    })


def ref_upper_stable(kind, p, x):
    return minimal({
        y for y in p.universe.subsets() if in_domain(kind, x, y) and y in ops.apply(kind, p, ApproxPair(x, y)).upper_set
    })


def test_programs_cover_every_class():
    heads = {len(r.head) > 1 for p in PROGRAMS for r in p.rules}
    literals = {type(lit).__name__ for p in PROGRAMS for r in p.rules for lit in getattr(r.body, "items", ())}
    assert heads == {False, True}
    assert {"PositiveAgg", "NegatedAgg", "PositiveAtom", "NegatedAtom"} <= literals
    assert {len(p.universe) for p in PROGRAMS} >= {1, 2, 3, 4, 5}
    assert sum(kind is OperatorKind.DMT_DET for _, kind in cases()) >= 10
    # Both paths of the four-valued complete stable values: rule tables on
    # plain programs and fired heads on the others.
    paths = {(kind, p.compile().classification.plain) for p, kind in cases() if kind in FOUR_VALUED_KINDS}
    assert paths == {(kind, plain) for kind in FOUR_VALUED_KINDS for plain in (False, True)}
    # Two rules with one head that fire at different sets, where the `dmt`
    # fold must run per head rather than per rule.
    assert any(
        first.holds(p.universe, z) != second.holds(p.universe, z)
        for p in PROGRAMS
        for first, second in combinations(p.compile().rules, 2)
        if first.head_mask == second.head_mask
        for z in range(1 << len(p.universe))
    )


@pytest.mark.parametrize("values", [[0b101, 0b110, 0b011, 0b111, 0b001, 0b100, 0b010, 0b000], [3, 1], [5]])
def test_interval_folds_are_the_and_and_or_over_each_interval(values):
    """Bit b of the values is one plane, marked at the total pairs (z, z)
    where values[z] has it; its folds give bit b of the AND and the OR."""
    n = len(values).bit_length() - 1
    digits = digit_planes(n)
    assert list(digits.pairs(digits.full)) == [(x, y) for x in range(1 << n) for y in range(1 << n) if not x & ~y]
    assert list(digits.pairs(digits.total)) == [(z, z) for z in range(1 << n)]
    bits = range(max(values).bit_length())
    at_total = [sum(1 << digits.number(z, z) for z, v in enumerate(values) if v >> b & 1) for b in bits]
    meet = [digits.fold(plane, True) for plane in at_total]
    join = [digits.fold(plane, False) for plane in at_total]
    for x, y in digits.pairs(digits.full):
        # Digit i of the pair number is 2, 1 or 0 as atom i is in x, in y - x or outside y.
        k = sum((2 if x >> i & 1 else y >> i & 1) * 3**i for i in range(n))
        inside = [values[z] for z in range(1 << n) if not x & ~z and not z & ~y]
        folds = (sum((meet[b] >> k & 1) << b for b in bits), sum((join[b] >> k & 1) << b for b in bits))
        assert folds == (reduce(and_, inside), reduce(or_, inside))


def test_fixpoints_equal_the_definition():
    for p, kind in cases():
        expected = [
            i for i in consistent_pairs(p)
            if i.lower in (v := ops.apply(kind, p, i)).lower_set and i.upper in v.upper_set
        ]
        assert sorted(sem.fixpoints(kind, p), key=p.universe.pair_key) == sorted(expected, key=p.universe.pair_key)


def test_complete_stable_values_and_stable_fixpoints_equal_the_definition():
    for p, kind in cases():
        subsets = list(p.universe.subsets())
        lower = {y: ref_lower_stable(kind, p, y) for y in subsets}
        upper = {x: ref_upper_stable(kind, p, x) for x in subsets}
        for s in subsets:
            assert sem.complete_lower_stable(kind, p, s) == lower[s]
            assert sem.complete_upper_stable(kind, p, s) == upper[s]
        expected = [i for i in consistent_pairs(p) if i.lower in lower[i.upper] and i.upper in upper[i.lower]]
        key = p.universe.pair_key
        assert sem.stable_fixpoints(kind, p) == sorted(expected, key=key)


def test_ht_pairs_equal_the_definition():
    for p, kind in cases():
        expected = [
            i for i in consistent_pairs(p)
            if smyth_leq(ops.ic(p, i.upper), frozenset((i.upper,)))
            and smyth_leq(ops.apply(kind, p, i).lower_set, frozenset((i.lower,)))
        ]
        key = p.universe.pair_key
        assert sorted(sem.ht_pairs(kind, p), key=key) == sorted(expected, key=key)


def fired_atoms(p, z):
    return frozenset().union(*ops.hd(p, z))


def det_lower(p, w, y):
    """Atoms derived at every set of [w, y]; the empty interval (w not below
    y) gives the full universe, which keeps the map monotone."""
    if not w <= y:
        return p.universe.full()
    return frozenset.intersection(*[fired_atoms(p, z) for z in p.universe.interval(w, y)])


def det_upper(p, x, z):
    """Atoms derived at some set of [x, z], for x <= z."""
    return frozenset().union(*[fired_atoms(p, w) for w in p.universe.interval(x, z)])


def ref_least_lower(p, y):
    """The least fixpoint of w -> det_lower(w, y), reached by iteration from
    the empty set."""
    w = frozenset()
    while (nxt := det_lower(p, w, y)) != w:
        w = nxt
    return w


def ref_det_stable(p):
    """Pairs (x, y) with x the least fixpoint of w -> det_lower(w, y) and y
    the least of the fixpoints of z -> det_upper(x, z) over the supersets of
    x."""
    out = []
    for i in consistent_pairs(p):
        fixed = [z for z in p.universe.subsets() if i.lower <= z and det_upper(p, i.lower, z) == z]
        least = [z for z in fixed if all(z <= other for other in fixed)]
        if ref_least_lower(p, i.upper) == i.lower and least == [i.upper]:
            out.append(i)
    return sorted(out, key=p.universe.pair_key)


def characteristic_program(atoms, table):
    """The program with a rule h :- body(z) for each atom h of table[z], where
    body(z) holds exactly at z; its fired atoms at the set z are table[z]."""
    rules = []
    for z, fired in enumerate(table):
        body = ", ".join(a if z >> i & 1 else f"not {a}" for i, a in enumerate(atoms))
        rules += [f"{h} :- {body}." for i, h in enumerate(atoms) if fired >> i & 1]
    return make_program(parse("\n".join(rules)).rules, AtomUniverse.of(atoms))


def fired_atom_tables():
    """Every fired-atom table over 2 atoms, a seeded sample over 3 atoms, and a
    program whose upper map at x = {a} has two minimal fixpoints, {a, b} and
    {a, c}."""
    for k in range(4**4):
        yield characteristic_program("ab", [k >> 2 * z & 3 for z in range(4)])
    rng = random.Random(8)
    for _ in range(150):
        yield characteristic_program("abc", [rng.randrange(8) for _ in range(8)])
    yield parse("a :- b.\nb :- b.\na :- c.\nc :- c.\n")


def test_det_stable_fixpoints_and_wf_equal_least_fixpoint_loops():
    det_programs = [p for p, kind in cases() if kind is OperatorKind.DMT_DET]
    for p in [*det_programs, *fired_atom_tables()]:
        for y in p.universe.subsets():
            # The least fixpoint is the one minimal one, if it lies below y.
            w = ref_least_lower(p, y)
            assert sem.complete_lower_stable(OperatorKind.DMT_DET, p, y) == ({w} if w <= y else set())
        expected = ref_det_stable(p)
        assert sem.det_stable_fixpoints(p) == expected
        least = [i for i in expected if all(leq_i(i, j) for j in expected)]
        if len(least) == 1:
            assert sem.wf_fixpoint_det(p) == least[0]
        else:
            with pytest.raises(AftlabError):
                sem.wf_fixpoint_det(p)


def test_dmt_det_is_dmt_on_atomic_heads():
    atomic = [p for p in PROGRAMS if all(len(r.head) == 1 for r in p.rules)]
    pairs = 0
    for p in [*atomic, *fired_atom_tables()]:
        for i in p.universe.consistent_pairs():
            pairs += 1
            assert ops.apply(OperatorKind.DMT, p, i) == ops.apply(OperatorKind.DMT_DET, p, i)
        assert ops.pair_planes(OperatorKind.DMT_DET, p) is ops.pair_planes(OperatorKind.DMT, p)
    assert pairs == 7359


def ref_kk(p):
    """The Kripke-Kleene pair: `operators.dmt_det` iterated from the least
    precise pair until it stops moving."""
    pair = ApproxPair(frozenset(), p.universe.full())
    while (nxt := ops.dmt_det(p, pair)) != pair:
        pair = nxt
    return pair


def test_kk_fixpoint_det_is_the_iteration_of_dmt_det():
    atomic = [p for p in PROGRAMS if all(len(r.head) == 1 for r in p.rules)]
    assert len(atomic) >= 20
    for p in [*atomic, *fired_atom_tables()]:
        assert sem.kk_fixpoint_det(p) == ref_kk(p)
    for p in PROGRAMS:
        if p not in atomic:
            with pytest.raises(ProgramClassError, match="^the deterministic operator needs atomic heads$"):
                sem.kk_fixpoint_det(p)


def test_the_empty_program_has_one_bit_planes():
    """No atoms: one pair, (∅, ∅), and planes of 3^0 = 1 bit."""
    p = parse("")
    empty = (ApproxPair(frozenset(), frozenset()),)
    for kind in INTERVAL_KINDS:
        for name in ("fixpoints", "stable", "total-stable", "ht", "seq", "seq-approx"):
            assert sem.run_semantics(name, p, kind).models == empty
        assert sem.complete_lower_stable(kind, p, frozenset()) == {frozenset()}
        assert sem.complete_upper_stable(kind, p, frozenset()) == {frozenset()}
        assert ops.pair_planes(kind, p).digits.full == 1
    for name in ("kk", "wf"):
        assert sem.run_semantics(name, p).models == empty


def test_the_four_valued_stable_values_read_one_and_two_bit_rows():
    """No atoms: rows of 2^0 = 1 bit and the one stable pair (∅, ∅). One
    atom: rows of two bits, whose candidates include the inconsistent pair
    ({p}, ∅), at which the aggregate's condition is C."""
    empty, none = parse(""), frozenset()
    assert ops.member_row(empty, 0) == ops.member_row(empty, 0, upper=True) == 1
    for kind in FOUR_VALUED_KINDS:
        for name in ("stable", "total-stable"):
            assert sem.run_semantics(name, empty, kind).models == (ApproxPair(none, none),)
    p_only = frozenset("p")
    negation, aggregate = parse("p :- not p."), parse("p :- #count{1:p} < 1.")
    for p, kind in [(negation, kind) for kind in FOUR_VALUED_KINDS] + [(aggregate, OperatorKind.IC_TRIV)]:
        assert sem.run_semantics("stable", p, kind).models == (ApproxPair(none, p_only),)
        assert sem.run_semantics("total-stable", p, kind).models == ()
        for s in (none, p_only):
            assert sem.complete_lower_stable(kind, p, s) == ref_lower_stable(kind, p, s), (p.text, kind, s)
            assert sem.complete_upper_stable(kind, p, s) == ref_upper_stable(kind, p, s), (p.text, kind, s)
    # The body is C at ({p}, ∅), so {p} hits its head there.
    assert sem.complete_lower_stable(OperatorKind.IC_TRIV, aggregate, none) == {p_only}


def test_interval_sweeps_build_no_interval_or_hitting_set_family(monkeypatch):
    calls = {"interval": 0, "hitting_sets": 0, "apply": 0}
    interval, hitting_sets, apply = AtomUniverse.interval, ops.hitting_sets, ops.apply

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(AtomUniverse, "interval", counting("interval", interval))
    monkeypatch.setattr(ops, "hitting_sets", counting("hitting_sets", hitting_sets))
    monkeypatch.setattr(ops, "apply", counting("apply", apply))
    for p, kind in cases():
        for name in ("fixpoints", "stable", "ht", "seq", "seq-approx"):
            sem.run_semantics(name, p, kind)
        if kind is OperatorKind.DMT_DET:
            sem.det_stable_fixpoints(p)
    for p in PROGRAMS:
        if p.compile().classification.plain:
            sem.run_semantics("three-valued-stable", p)
    assert calls == {"interval": 0, "hitting_sets": 0, "apply": 0}
    # A fresh parse: the other tests of this module have filled the base
    # entries and the family store of PROGRAMS[-1] (`Compiled.base`,
    # `Compiled.families`). A direct `dmt_ndao` at (∅, A) walks the interval
    # on masks: it fills each of the 2^n base entries once, builds the
    # families of the meet and the join, and enumerates no interval.
    ops.dmt_ndao.cache_clear()
    fresh = parse(PROGRAMS[-1].text)
    filled, base = [], ops._base
    monkeypatch.setattr(ops, "_base", lambda p, xm: filled.append(xm) or base(p, xm))
    ops.dmt_ndao(fresh, ApproxPair(frozenset(), fresh.universe.full()))
    assert sorted(filled) == sorted(fresh.compile().base) == list(range(1 << len(fresh.universe)))
    assert calls == {"interval": 0, "hitting_sets": 2, "apply": 0}


def row_key(p, fixed):
    """What a row of the four-valued complete stable values reads of its
    fixed set: which plain rules' neg misses it, and its atoms that the
    aggregate and formula bodies read there, the negated atoms and the
    entry conditions of an aggregate body, every atom of a formula body."""
    plain, read = [], set()
    for r in p.rules:
        if isinstance(r.body, GeneralFormula):
            read |= four.formula_atoms(r.body.formula)
        elif any(isinstance(lit, (PositiveAgg, NegatedAgg)) for lit in r.body.items):
            for lit in r.body.items:
                if isinstance(lit, NegatedAtom):
                    read.add(lit.name)
                elif isinstance(lit, (PositiveAgg, NegatedAgg)):
                    read.update(a for entry in lit.agg.term.entries for a in entry.condition)
        else:
            plain.append(not any(isinstance(lit, NegatedAtom) and lit.name in fixed for lit in r.body.items))
    return tuple(plain), fixed & read


def test_each_program_builds_its_rule_tables_once(monkeypatch):
    """Each distinct set of planes once per program, shared by every sweep:
    `dmt-det`, swept after `dmt`, and `ic-triv`, swept after `ic`, build
    none, nor do three-valued stable models, which read the minimal planes of
    `ic`. The complete stable values of `ic` and `ic-triv` build one row per
    program, side and key (`row_key`), shared by both operators and by every
    fixed set with that key; a consistent-only operator builds none."""
    row_builds = []
    plane_builds = []
    minimal_reads = []

    def recording_minimal(planes):
        minimal_reads.append(planes)
        return minimal(planes)

    def counting_rows(p, fixed, upper=False):
        row_builds.append((upper, row_key(p, p.universe.unmask(fixed))))
        return member_row(p, fixed, upper)

    def counting_planes(kind, p):
        plane_builds.append(kind)
        return interval_tables(kind, p)

    member_row, interval_tables, minimal = ops.member_row, ops.interval_tables, ops.PairPlanes.minimal
    monkeypatch.setattr(ops, "member_row", counting_rows)
    monkeypatch.setattr(ops, "interval_tables", counting_planes)
    monkeypatch.setattr(ops.PairPlanes, "minimal", recording_minimal)
    for original in PROGRAMS:
        p = make_program(original.rules, original.universe)
        for kind in [kind for q, kind in cases() if q is original]:
            before = len(row_builds)
            sem.fixpoints(kind, p)
            sem.stable_fixpoints(kind, p)
            sem.ht_pairs(kind, p)
            for s in p.universe.subsets():
                sem.complete_lower_stable(kind, p, s)
                sem.complete_upper_stable(kind, p, s)
            if ops.consistent_only(kind):
                assert len(row_builds) == before, kind
        if p.compile().classification.plain:
            builds = len(row_builds), len(plane_builds)
            minimal_reads.clear()
            sem.three_valued_stable(p)
            assert (len(row_builds), len(plane_builds)) == builds
            assert len(minimal_reads) == 1 and minimal_reads[0] is ops.pair_planes(OperatorKind.IC, p)
        keys = {(upper, row_key(p, s)) for upper in (False, True) for s in p.universe.subsets()}
        assert len(row_builds) == len(keys) and set(row_builds) == keys
        shared = {OperatorKind.IC: OperatorKind.IC_TRIV, OperatorKind.DMT_DET: OperatorKind.DMT}
        assert plane_builds == list(dict.fromkeys(shared.get(kind, kind) for q, kind in cases() if q is original))
        if p.compile().classification.aggregate_free:
            assert ops.pair_planes(OperatorKind.IC, p) is ops.pair_planes(OperatorKind.IC_TRIV, p)
        row_builds.clear()
        plane_builds.clear()
