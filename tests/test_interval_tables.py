"""The bit planes of every operator, kept per program and set of planes, and
the rows of the complete stable values of `ic` and `ic-triv`, kept per
program, side and key: what each is built from, how often, and what they
share (`dmt-det` reads the planes of `dmt`). `tests/test_referee.py` holds
their answers against the definitions."""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import and_, or_

import pytest

import reference as ref
from aftlab import four, operators as ops, program as prog, semantics as sem
from aftlab.lattice import ApproxPair, AtomUniverse, digit_planes
from aftlab.operators import OperatorKind
from aftlab.program import GeneralFormula, NegatedAgg, NegatedAtom, PositiveAgg, make_program, parse

INTERVAL_KINDS = (OperatorKind.DMT, OperatorKind.ULTIMATE, OperatorKind.GZ, OperatorKind.DMT_DET)
FOUR_VALUED_KINDS = (OperatorKind.IC, OperatorKind.IC_TRIV)


def cases():
    for p in ref.PROGRAMS:
        for kind in (*INTERVAL_KINDS, *FOUR_VALUED_KINDS):
            if kind is OperatorKind.DMT_DET and any(len(r.head) > 1 for r in p.rules):
                continue
            if kind is OperatorKind.IC and p.compile().classification.has_aggregates:
                continue
            yield p, kind


def test_programs_cover_every_class():
    heads = {len(r.head) > 1 for p in ref.PROGRAMS for r in p.rules}
    literals = {type(lit).__name__ for p in ref.PROGRAMS for r in p.rules for lit in getattr(r.body, "items", ())}
    assert heads == {False, True}
    assert {"PositiveAgg", "NegatedAgg", "PositiveAtom", "NegatedAtom"} <= literals
    assert {len(p.universe) for p in ref.PROGRAMS} >= {1, 2, 3, 4, 5}
    assert sum(kind is OperatorKind.DMT_DET for _, kind in cases()) >= 10
    # Both paths of the four-valued complete stable values: rule tables on
    # plain programs and fired heads on the others.
    paths = {(kind, p.compile().classification.plain) for p, kind in cases() if kind in FOUR_VALUED_KINDS}
    assert paths == {(kind, plain) for kind in FOUR_VALUED_KINDS for plain in (False, True)}
    # Two rules with one head that fire at different sets, where the `dmt`
    # fold must run per head rather than per rule.
    assert any(
        first.holds(p.universe, z) != second.holds(p.universe, z)
        for p in ref.PROGRAMS
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
    consistent = [(x, y) for x in range(1 << n) for y in range(1 << n) if not x & ~y]
    assert digits.keys(digits.full) == [x << n | y for x, y in consistent]
    assert digits.keys(digits.total) == [z << n | z for z in range(1 << n)]
    bits = range(max(values).bit_length())
    at_total = [sum(1 << digits.number(z, z) for z, v in enumerate(values) if v >> b & 1) for b in bits]
    meet = [digits.fold(plane, True) for plane in at_total]
    join = [digits.fold(plane, False) for plane in at_total]
    for x, y in consistent:
        # Digit i of the pair number is 2, 1 or 0 as atom i is in x, in y - x or outside y.
        k = sum((2 if x >> i & 1 else y >> i & 1) * 3**i for i in range(n))
        inside = [values[z] for z in range(1 << n) if not x & ~z and not z & ~y]
        folds = (sum((meet[b] >> k & 1) << b for b in bits), sum((join[b] >> k & 1) << b for b in bits))
        assert folds == (reduce(and_, inside), reduce(or_, inside))


def test_dmt_det_is_dmt_on_atomic_heads():
    atomic = [p for p in ref.PROGRAMS if all(len(r.head) == 1 for r in p.rules)]
    pairs = 0
    for p in [*atomic, *ref.fired_atom_tables()]:
        for i in p.universe.consistent_pairs():
            pairs += 1
            assert ops.apply(OperatorKind.DMT, p, i) == ops.apply(OperatorKind.DMT_DET, p, i)
        assert ops.pair_planes(OperatorKind.DMT_DET, p) is ops.pair_planes(OperatorKind.DMT, p)
    assert pairs == 7359


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
    assert ops.member_row(empty, 0) == 1
    for kind in FOUR_VALUED_KINDS:
        for name in ("stable", "total-stable"):
            assert sem.run_semantics(name, empty, kind).models == (ApproxPair(none, none),)
    p_only = frozenset("p")
    negation, aggregate = parse("p :- not p."), parse("p :- #count{1:p} < 1.")
    for p, kind in [(negation, kind) for kind in FOUR_VALUED_KINDS] + [(aggregate, OperatorKind.IC_TRIV)]:
        assert sem.run_semantics("stable", p, kind).models == (ApproxPair(none, p_only),)
        assert sem.run_semantics("total-stable", p, kind).models == ()
        for s in (none, p_only):
            assert sem.complete_lower_stable(kind, p, s) == ref.lower_stable(p, kind)[s], (p.text, kind, s)
            assert sem.complete_upper_stable(kind, p, s) == ref.upper_stable(p, kind)[s], (p.text, kind, s)
    # The body is C at ({p}, ∅), so {p} hits its head there.
    assert sem.complete_lower_stable(OperatorKind.IC_TRIV, aggregate, none) == {p_only}


def test_interval_sweeps_build_no_interval_or_hitting_set_family(monkeypatch):
    calls = {"interval": 0, "hitting_row": 0, "apply": 0}
    interval, hitting_row, apply = AtomUniverse.interval, ops.hitting_row, ops.apply

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(AtomUniverse, "interval", counting("interval", interval))
    # The family store's fill reads `hitting_row` in `program`, `hitting_sets` in `operators`.
    monkeypatch.setattr(ops, "hitting_row", counting("hitting_row", hitting_row))
    monkeypatch.setattr(prog, "hitting_row", ops.hitting_row)
    monkeypatch.setattr(ops, "apply", counting("apply", apply))
    stores = lambda: {p: (len(p.compile().base), len(p.compile().families)) for p in ref.PROGRAMS}
    before = stores()
    for p, kind in cases():
        for name in ("fixpoints", "stable", "ht", "seq", "seq-approx"):
            sem.run_semantics(name, p, kind)
        if kind is OperatorKind.DMT_DET:
            sem.det_stable_fixpoints(p)
    for p in ref.PROGRAMS:
        if p.compile().classification.plain:
            sem.run_semantics("three-valued-stable", p)
    assert calls == {"interval": 0, "hitting_row": 0, "apply": 0}
    assert stores() == before
    # A fresh parse: the other tests of this module have filled the base
    # entries and the family store of ref.PROGRAMS[-1] (`Compiled.base`,
    # `Compiled.families`). A direct `dmt_ndao` at (∅, A) reads `apply`
    # once, which walks the interval on masks: it fills each of the 2^n base
    # entries once, builds the families of the meet and the join, and
    # enumerates no interval.
    ops.dmt_ndao.cache_clear()
    fresh = parse(ref.PROGRAMS[-1].text)
    compiled, filled = fresh.compile(), []
    fill = compiled.base.fill
    compiled.base.fill = lambda xm: filled.append(xm) or fill(xm)
    ops.dmt_ndao(fresh, ApproxPair(frozenset(), fresh.universe.full()))
    assert sorted(filled) == sorted(compiled.base) == list(range(1 << len(fresh.universe)))
    assert len(compiled.families) == 2
    assert calls == {"interval": 0, "hitting_row": 2, "apply": 1}


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
    program and key (`row_key`), shared by both operators, by the lower and
    the upper value and by every fixed set with that key; a consistent-only
    operator builds none."""
    row_builds = []
    plane_builds = []
    minimal_reads = []

    def recording_minimal(planes):
        minimal_reads.append(planes)
        return minimal(planes)

    def counting_rows(p, fixed):
        row_builds.append(row_key(p, p.universe.unmask(fixed)))
        return member_row(p, fixed)

    def counting_planes(kind, p):
        plane_builds.append(kind)
        return interval_tables(kind, p)

    member_row, interval_tables, minimal = ops.member_row, ops.interval_tables, ops.PairPlanes.minimal
    monkeypatch.setattr(ops, "member_row", counting_rows)
    monkeypatch.setattr(ops, "interval_tables", counting_planes)
    monkeypatch.setattr(ops.PairPlanes, "minimal", recording_minimal)
    for original in ref.PROGRAMS:
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
        keys = {row_key(p, s) for s in p.universe.subsets()}
        assert len(row_builds) == len(keys) and set(row_builds) == keys
        shared = {OperatorKind.IC: OperatorKind.IC_TRIV, OperatorKind.DMT_DET: OperatorKind.DMT}
        assert plane_builds == list(dict.fromkeys(shared.get(kind, kind) for q, kind in cases() if q is original))
        if p.compile().classification.aggregate_free:
            assert ops.pair_planes(OperatorKind.IC, p) is ops.pair_planes(OperatorKind.IC_TRIV, p)
        row_builds.clear()
        plane_builds.clear()
