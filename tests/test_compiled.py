"""Differential tests: the compiled rule bodies (two bitmasks plus aggregate
literals read on condition masks), their bit planes over the consistent
pairs and their rows over the sets of one side with the other fixed, the
integer hitting-set enumeration, the reference operators, the member rows
and the kept program hash, against the readings and definitions of the
referee (`tests/reference.py`)."""

from __future__ import annotations

import pickle
import random

import pytest

import reference as ref
from aftlab import cli, corpus, four, laws, operators as ops, program as prog, semantics as sem
from aftlab.four import Truth
from aftlab.lattice import AftlabError, ApproxPair, AtomUniverse, InconsistentPairError, NdPair, digit_planes
from aftlab.program import CompiledAggregate, Conj, GeneralFormula, NegatedAgg, NegatedAtom, PositiveAgg, PositiveAtom
from aftlab.program import ProgramClassError, Rule, eval_body, parse
from conftest import value_or_refusal

FORMULA_PROGRAMS = (
    ref.GENERAL_BODY,
    "p | q :- (p | not q) & not #false.\nq :- not p | (r & #true).\nr :- q & not #true | not r.\n",
    "a :- b.\nb :- not a & (c | #true).\nc | a :- not (b | #false).\n",
)


def seeded_aggregate_programs():
    return ref.seeded(range(24), atoms=lambda s: 2 + s % 3, rules=3, aggregate_probability=0.6)


def programs():
    return [*seeded_aggregate_programs(), *(parse(text) for text in FORMULA_PROGRAMS)]


def test_programs_cover_aggregates_and_formula_bodies():
    bodies = [r.body for p in programs() for r in p.rules]
    assert any(isinstance(b, GeneralFormula) for b in bodies)
    assert sum(isinstance(b, Conj) and any(not isinstance(lit, (PositiveAtom, NegatedAtom)) for lit in b.items)
               for b in bodies) >= 10


def body_bits(p, i: ApproxPair) -> list[int]:
    """The two bits of each rule's formula reading at i, in rule order."""
    return [four.eval_pair(p.universe, i, ref.formula_reading(r, i)).value for r in p.rules]


def heads_with(p, bits: list[int], bit: int) -> frozenset:
    return frozenset(r.head_set() for r, b in zip(p.rules, bits) if b & bit)


def four_heads(p, i):
    """`operators._four_heads` at the pair i, read on its masks, as the two
    families of heads."""
    compiled, u = p.compile(), p.universe
    lower, upper = ops._four_heads(p, compiled, u.mask(i.lower), u.mask(i.upper))
    return ops._heads(compiled, lower), ops._heads(compiled, upper)


def test_body_planes_equal_the_two_bit_reading():
    """At each consistent pair k, bit k of a rule's lower (upper) body plane
    is whether the rule's body has the lower (upper) bit there, and
    `operators._four_heads` selects the heads of the rules so marked. In the
    row form, at every pair (x, y), the inconsistent ones too, where an
    aggregate condition can hold at x but not at y: bit x of a rule's lower
    row at fixed y, and bit y of its upper row at fixed x."""
    # The generator writes at most two entries per aggregate; these have more,
    # some sharing atoms, so that their conditions split the pairs many ways.
    many_entries = parse(
        "p :- #sum{1:p; 2:q & r; -1:s; 1:q} >= 1, not #count{1:q; 1:r & s; 1:p} > 1.\n"
        "q | r :- #max{1:s; 3:p & q; 2:r} < 2.\ns :- not #sum{1:p; 1:q; 1:r; 1:s} = 2.\n"
    )
    tested = [*programs(), *corpus.programs(), many_entries]
    literals = {type(lit) for p in tested for r in p.rules if isinstance(r.body, Conj) for lit in r.body.items}
    assert {PositiveAgg, NegatedAgg} <= literals
    for p in tested:
        u = p.universe
        digits = digit_planes(len(u))
        in_y = [digits.full ^ d for d in digits.d0]
        rules = p.compile().rules
        planes = [ops._body_planes(u, r, digits.full, digits.d2, in_y) for r in rules]
        for xm, ym in u.consistent_masks():
            k = digits.number(xm, ym)
            bits = body_bits(p, u.pair(xm, ym))
            heads = four_heads(p, u.pair(xm, ym))
            for side, bit in enumerate((four.LOWER_BIT, four.UPPER_BIT)):
                fired = [bool(b & bit) for b in bits]
                assert [plane[side] >> k & 1 for plane in planes] == fired, (p.text, xm, ym)
                assert heads[side] == heads_with(p, bits, bit), (p.text, xm, ym)
        size = 1 << len(u)
        full = (1 << size) - 1
        free = [sum(1 << m for m in range(size) if m >> i & 1) for i in range(len(u))]
        for fixed in range(size):
            at = [full if fixed >> i & 1 else 0 for i in range(len(u))]
            lower_rows = [ops._body_planes(u, r, full, free, at)[0] for r in rules]
            upper_rows = [ops._body_planes(u, r, full, at, free)[1] for r in rules]
            for m in range(size):
                bits = body_bits(p, u.pair(m, fixed))
                fired = [bool(b & four.LOWER_BIT) for b in bits]
                assert [row >> m & 1 for row in lower_rows] == fired, (p.text, m, fixed)
                assert four_heads(p, u.pair(m, fixed))[0] == heads_with(p, bits, four.LOWER_BIT)
                bits = body_bits(p, u.pair(fixed, m))
                fired = [bool(b & four.UPPER_BIT) for b in bits]
                assert [row >> m & 1 for row in upper_rows] == fired, (p.text, fixed, m)
                assert four_heads(p, u.pair(fixed, m))[1] == heads_with(p, bits, four.UPPER_BIT)


@pytest.mark.parametrize("threshold", [Truth.C, Truth.U])
def test_two_bit_head_selection_equals_the_formula_reading(threshold):
    side = 0 if threshold is Truth.C else 1
    for p in programs():
        for i in ref.all_pairs(p.universe):
            assert four_heads(p, i)[side] == ref.heads_at_least(p, i, threshold), (p.text, i)


def test_hd_equals_the_eval_body_filter_and_the_literal_reading():
    for p in programs():
        u = p.universe
        for x in u.subsets():
            assert ops.hd(p, x) == frozenset(r.head_set() for r in p.rules if eval_body(u, x, r))
            for r in p.rules:
                if isinstance(r.body, Conj):
                    expected = all(ref.literal_reading(x, lit) for lit in r.body.items)
                else:
                    expected = four.eval_two(u, x, r.body.formula) is Truth.T
                assert eval_body(u, x, r) == expected, (p.text, r, x)


def aggregate_literals():
    for p in [*seeded_aggregate_programs(), *corpus.programs()]:
        for r in p.rules:
            if isinstance(r.body, Conj):
                aggs = [lit for lit in r.body.items if not isinstance(lit, (PositiveAtom, NegatedAtom))]
                yield from ((p.universe, lit) for lit in aggs)


def test_compiled_aggregates_equal_the_set_reading():
    literals = list(aggregate_literals())
    assert len(literals) >= 20
    for u, lit in literals:
        compiled = CompiledAggregate(u, lit)
        for xm in range(1 << len(u)):
            x = u.unmask(xm)
            assert compiled.holds(xm) == ref.literal_reading(x, lit), (lit, x)
            # Every pair, the inconsistent ones too: ic-triv is total.
            for ym in range(1 << len(u)):
                i = ApproxPair(x, u.unmask(ym))
                assert Truth(compiled.trivial(xm, ym)) is ref.trivial_aggregate_value(i, lit), (lit, i)


def test_sweeps_build_no_sets_to_read_a_body(monkeypatch):
    # A formula-free aggregate program: its bodies are read on masks only,
    # so the sweep builds sets just for the pairs it returns.
    p = parse(
        "p :- #sum{1:p; 2:q & r} >= 1.\nq | r :- not #count{1:p} > 0.\nr :- #max{1:q; 2:p} < 2, not s.\ns :- q, r.\n"
    )
    aggregate_calls, unmask_calls = [], []
    real_eval_aggregate, real_unmask = prog.eval_aggregate, AtomUniverse.unmask

    def counting_eval_aggregate(x, agg):
        aggregate_calls.append(x)
        return real_eval_aggregate(x, agg)

    def counting_unmask(u, m):
        unmask_calls.append(m)
        return real_unmask(u, m)

    monkeypatch.setattr(prog, "eval_aggregate", counting_eval_aggregate)
    monkeypatch.setattr(AtomUniverse, "unmask", counting_unmask)
    models = sem.stable_fixpoints(ops.OperatorKind.DMT, p)
    assert models
    assert aggregate_calls == []
    assert len(unmask_calls) == 2 * len(models)


def test_hitting_sets_equal_brute_force():
    rng = random.Random(7)
    pool = "pqrsab"
    families = [frozenset()]
    for _ in range(400):
        families.append(frozenset(
            frozenset(rng.sample(pool, rng.randint(1, 3))) for _ in range(rng.randint(1, 4))
        ))
    for heads in families:
        assert ops.hitting_sets(heads) == ref.hitting_sets(heads)
    assert ops.hitting_sets(frozenset()) == frozenset((frozenset(),))
    with pytest.raises(AftlabError):
        ops.hitting_sets(frozenset((frozenset("p"), frozenset())))


def reference_programs():
    """The corpus, seeded programs of 1 to 4 atoms with and without
    aggregates, and a program with general formula bodies."""
    seeded = [p for n in range(1, 5) for aggregates in (0.0, 0.5)
              for p in ref.seeded(range(10 * n, 10 * n + 3), atoms=n, rules=n + 1, aggregate_probability=aggregates)]
    return [*corpus.programs(), *seeded, parse(FORMULA_PROGRAMS[0])]


# The public function of each operator `apply` reads on an interval.
INTERVAL_REFERENCES = {
    ops.OperatorKind.DMT: ops.dmt_ndao,
    ops.OperatorKind.ULTIMATE: ops.ultimate_ndao,
    ops.OperatorKind.GZ: ops.gz_ndao,
    ops.OperatorKind.DMT_DET: lambda p, i: NdPair(*({side} for side in ops.dmt_det(p, i))),
}


def test_reference_operators_equal_their_definitions():
    """`ops.apply` for every operator at every pair, and `hd`, `ic` and
    `_fired_atoms` at every set, give the referee's value or refusal, and so
    do the public functions of `dmt`, `ultimate`, `gz` and `dmt-det`
    (lifted). A program outside the operator's class is refused at every
    pair, and an inconsistent pair by all but the four-valued operators."""
    OK = ops.OperatorKind
    tested = reference_programs()
    assert any(p.compile().classification.has_aggregates for p in tested)
    assert any(p.compile().classification.shape == prog.SHAPE_GENERAL for p in tested)
    for p in tested:
        u, cls = p.universe, p.compile().classification
        for x in u.subsets():
            assert (ops.hd(p, x), ops.ic(p, x), ops._fired_atoms(p, x)) == (
                ref.hd(p, x), ref.ic(p, x), ref.fired_atoms(p, x)), (p.text, x)
        for i in ref.all_pairs(p.universe):
            for kind in OK:
                found = value_or_refusal(ops.apply, kind, p, i)
                assert found == value_or_refusal(ref.operator_value, kind, p, i), (p.text, kind, i)
                if kind in INTERVAL_REFERENCES:
                    assert found == value_or_refusal(INTERVAL_REFERENCES[kind], p, i), (p.text, kind, i)
                if kind is OK.IC and cls.has_aggregates or kind is OK.DMT_DET and not cls.atomic_heads:
                    assert found is ProgramClassError, (p.text, kind, i)
                elif not i.is_consistent and kind not in ops.FOUR_VALUED:
                    assert found is InconsistentPairError, (p.text, kind, i)


def membership_programs():
    seeded = ref.seeded(range(32), atoms=lambda s: 1 + s % 4, rules=lambda s: 1 + s % 3,
                        aggregate_probability=lambda s: 0.6 * (s % 2))
    return [*seeded, *(parse(text) for text in FORMULA_PROGRAMS)]


def test_membership_tests_equal_the_materialised_families():
    """At every pair (m, w), the inconsistent ones too: bit w of the member
    row at fixed m is whether w is in the upper set at (m, w), and whether w
    is in the lower set at (w, m)."""
    for p in membership_programs():
        u = p.universe
        rows = [ops.member_row(p, m) for m in range(1 << len(u))]
        for i in ref.all_pairs(p.universe):
            m, w = u.mask(i.lower), u.mask(i.upper)
            upper = ops.hitting_sets(ref.heads_at_least(p, i, Truth.U))
            lower = ops.hitting_sets(ref.heads_at_least(p, ApproxPair(i.upper, i.lower), Truth.C))
            assert rows[m] >> w & 1 == (i.upper in upper) == (i.upper in lower), (p.text, i)


def test_the_four_valued_lower_set_at_a_pair_is_the_upper_set_at_the_swapped_pair():
    """Derived, not measured: a body's lower bit at (x, y) is its truth at x
    with negation read at y, its upper bit at (y, x) its truth at x with
    negation read at y. That holds atom by atom, for `not`, `&` and `|`
    (negation swaps and complements the two bits), for `#true` and `#false`
    (both bits equal), and for an aggregate literal's trivial approximation
    (C at (x, y) iff U at (y, x), and exact at both or neither). So the heads
    fired in the lower set at (x, y) are those fired in the upper set at
    (y, x), and their hitting sets are equal. `#u` and `#c` would break it;
    the parser and `make_program` refuse them."""
    for p in programs():
        values, n = ops.values(ops.IC_TRIV, p), len(p.universe)
        for number, (lower, _) in enumerate(values):
            swapped = values[(number & (1 << n) - 1) << n | number >> n]
            assert lower == swapped[1], (p.text, number)


# Every memoized operator. Programs equal in value share their entries, so
# a family memoised by an earlier test, or by an equal program parsed
# earlier, would hide a build.
MEMOS = (
    ops.hd, ops.ic, ops.ic_lower_set, ops.ic_upper_set,
    ops._fired_atoms, ops.dmt_det, ops.dmt_ndao, ops.ultimate_ndao, ops.gz_ndao,
)


def clear_memos() -> None:
    for fn in MEMOS:
        fn.cache_clear()


def _count_hitting_sets(monkeypatch) -> list:
    """Record each hitting-set family built, as the arguments of the one
    builder, `hitting_row`: the number of atoms and the head masks. It is
    wrapped where the family store's fill reads it (`program`) and where
    `operators.hitting_sets` does."""
    clear_memos()
    calls = []
    hitting_row = ops.hitting_row

    def counting(n, heads):
        heads = frozenset(heads)
        calls.append((n, heads))
        return hitting_row(n, heads)

    monkeypatch.setattr(ops, "hitting_row", counting)
    monkeypatch.setattr(prog, "hitting_row", counting)
    return calls


def test_four_valued_sweeps_build_no_hitting_set_family(monkeypatch):
    calls = _count_hitting_sets(monkeypatch)
    runs = 0
    for p in corpus.programs():
        for kind in ops.FOUR_VALUED:
            for name in ("stable", "fixpoints", "ht", "seq"):
                try:
                    sem.run_semantics(name, p, kind)
                except ProgramClassError:
                    continue
                runs += 1
    assert runs >= 40
    assert calls == []


def test_eval_still_builds_the_family(monkeypatch):
    """`eval` reads the two head families of its pair from the program's
    family store, which builds each on its first read."""
    calls = _count_hitting_sets(monkeypatch)
    path = str(corpus.path("disjunctive_self_defeat"))
    assert cli.main(["eval", "--program", path, "--operator", "ic", "--pair", ";p,q", "--format", "json"]) == 0
    assert len(calls) == 2
    p = parse(corpus.text("disjunctive_self_defeat"))
    calls.clear()
    ops.apply(ops.IC, p, ApproxPair(frozenset(), frozenset("pq")))
    assert len(calls) == len(p.compile().families) == 2


def test_the_laws_build_each_family_once_per_program(monkeypatch):
    calls = _count_hitting_sets(monkeypatch)
    for name in ("disjunctive_self_defeat", "aggregate_cycle"):
        p = parse(corpus.text(name))
        calls.clear()
        laws.run_laws([p])
        built = list(calls)
        assert built and len(built) == len(set(built)) == len(p.compile().families), name
        laws.run_laws([p])
        assert calls == built, name
        # A fresh parse has a store of its own and builds the families again.
        clear_memos()
        calls.clear()
        laws.run_laws([parse(p.text)])
        assert set(calls) == set(built), name


def apply_values(p, visits):
    """ops.apply at each (kind, pair) in the order given: the value, or the
    class of the error it refuses the pair with."""
    return {(kind, i): value_or_refusal(ops.apply, kind, p, i) for kind, i in visits}


def test_kept_families_give_the_values_of_a_fresh_parse_visited_in_reverse():
    seeded = ref.seeded(range(16), atoms=lambda s: 1 + s % 3, rules=3, aggregate_probability=lambda s: 0.5 * (s % 2))
    for p in [*corpus.programs(), *seeded]:
        clear_memos()
        visits = [(kind, i) for kind in ops.OperatorKind for i in ref.all_pairs(p.universe)]
        first = apply_values(p, visits)
        assert any(not isinstance(v, type) for v in first.values()), p.text
        clear_memos()
        assert apply_values(parse(p.text), visits[::-1]) == first, p.text


def test_a_refusal_is_not_kept_and_raises_on_every_ask():
    aggregate = parse("p :- #count{1:q} >= 1.\nq :- not p.\n")
    disjunctive = parse("p | q :- not r.\nr :- p.\n")
    inconsistent = ApproxPair(frozenset("p"), frozenset())
    refusals = [
        (ops.OperatorKind.IC, aggregate, ApproxPair(frozenset(), frozenset("p")), ProgramClassError),
        (ops.OperatorKind.DMT_DET, disjunctive, ApproxPair(frozenset(), frozenset("pq")), ProgramClassError),
        *((kind, disjunctive, inconsistent, InconsistentPairError)
          for kind in (ops.OperatorKind.DMT, ops.OperatorKind.ULTIMATE, ops.OperatorKind.GZ)),
    ]
    for kind, p, i, error in refusals:
        for _ in range(2):
            with pytest.raises(error):
                ops.apply(kind, p, i)
    # The planes `ic` and `dmt-det` share, those of `ic-triv` and `dmt`, are
    # refused to them outside their class, and none are built.
    shared = [(ops.OperatorKind.IC, aggregate, "the four-valued operator needs an aggregate-free program"),
              (ops.OperatorKind.DMT_DET, disjunctive, "the deterministic operator needs atomic heads")]
    for kind, p, message in shared:
        with pytest.raises(ProgramClassError, match=f"^{message}$"):
            ops.pair_planes(kind, p)
        assert p.compile().pair_planes == {}, kind


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
    assert set(vars(p)) == {"_hash", "_compiled"}
    copied = pickle.loads(pickle.dumps(p))
    # The fields alone travel; the copy keeps neither the hash nor the compiled form.
    assert copied == p and vars(copied) == {}


def test_hd_reads_a_formula_body_two_valued():
    # The body of p is F at every total pair, so hd never fires its rule;
    # at (∅, {q}) it is U, whose upper bit fires it in the upper
    # four-valued head selection.
    p = parse("p :- not (q | not q).\nq :- #true.\n")
    body = p.rules[0].body.formula
    for x in p.universe.subsets():
        assert ops.hd(p, x) == frozenset({frozenset({"q"})})
        assert four.eval_pair(p.universe, ApproxPair(x, x), body) is Truth.F
    gap = ApproxPair(frozenset(), frozenset({"q"}))
    assert four.eval_pair(p.universe, gap, body) is Truth.U
    assert ops.ic_upper_set(p, gap) == ops.hitting_sets(frozenset({frozenset({"p"}), frozenset({"q"})}))
    assert ops.ic_lower_set(p, gap) == ops.hitting_sets(frozenset({frozenset({"q"})}))
