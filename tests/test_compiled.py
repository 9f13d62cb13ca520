"""Differential tests: the compiled rule bodies (two bitmasks plus aggregate
literals read on condition masks), their bit planes over the consistent
pairs and their rows over the sets of one side with the other fixed, the
integer hitting-set enumeration, the member rows and the kept program hash,
against direct readings of the program kept here as references."""

from __future__ import annotations

import pickle
import random
import sys

import pytest

from aftlab import cli, corpus, four, laws, operators as ops, program as prog, semantics as sem
from aftlab.four import Truth
from aftlab.generator import GeneratorConfig, generate_program
from aftlab.lattice import AftlabError, ApproxPair, AtomUniverse, InconsistentPairError, NdPair, digit_planes
from aftlab.program import (
    CompiledAggregate,
    Conj,
    GeneralFormula,
    NegatedAgg,
    NegatedAtom,
    PositiveAgg,
    PositiveAtom,
    ProgramClassError,
    Rule,
    eval_aggregate,
    eval_body,
    parse,
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


def literal_reading(x, lit) -> bool:
    """Two-valued truth of a body literal at the set x; an undefined
    aggregate makes it false either way round."""
    if isinstance(lit, PositiveAtom):
        return lit.name in x
    if isinstance(lit, NegatedAtom):
        return lit.name not in x
    truth, defined = eval_aggregate(x, lit.agg)
    return defined and (truth is Truth.T) == isinstance(lit, PositiveAgg)


def trivial_aggregate_value(i: ApproxPair, lit) -> Truth:
    """The trivial approximation of an aggregate literal at i = (x, y), on
    sets: exact where every entry condition has the same truth at x and at y,
    else its lower reading holds iff some condition holds at x only and its
    upper reading iff some condition holds at y only."""
    at = [(set(e.condition) <= i.lower, set(e.condition) <= i.upper) for e in lit.agg.term.entries]
    below = any(at_x and not at_y for at_x, at_y in at)
    above = any(at_y and not at_x for at_x, at_y in at)
    if below or above:
        return Truth(below << 1 | above)
    return Truth.T if literal_reading(i.lower, lit) else Truth.F


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


def heads_at_least(p, i: ApproxPair, threshold: Truth) -> frozenset:
    """Heads of the rules whose formula reading at i is >=_t threshold."""
    return frozenset(
        r.head_set()
        for r in p.rules
        if four.truth_leq_t(threshold, four.eval_pair(p.universe, i, formula_reading(r, i)))
    )


def body_bits(p, i: ApproxPair) -> list[int]:
    """The two bits of each rule's formula reading at i, in rule order."""
    return [four.eval_pair(p.universe, i, formula_reading(r, i)).value for r in p.rules]


def heads_with(p, bits: list[int], bit: int) -> frozenset:
    return frozenset(r.head_set() for r, b in zip(p.rules, bits) if b & bit)


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
            heads = ops._four_heads(p, u.pair(xm, ym))
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
                assert ops._four_heads(p, u.pair(m, fixed))[0] == heads_with(p, bits, four.LOWER_BIT)
                bits = body_bits(p, u.pair(fixed, m))
                fired = [bool(b & four.UPPER_BIT) for b in bits]
                assert [row >> m & 1 for row in upper_rows] == fired, (p.text, fixed, m)
                assert ops._four_heads(p, u.pair(fixed, m))[1] == heads_with(p, bits, four.UPPER_BIT)


@pytest.mark.parametrize("threshold", [Truth.C, Truth.U])
def test_two_bit_head_selection_equals_the_formula_reading(threshold):
    side = 0 if threshold is Truth.C else 1
    for p in programs():
        for i in all_pairs(p):
            assert ops._four_heads(p, i)[side] == heads_at_least(p, i, threshold), (p.text, i)


def test_hd_equals_the_eval_body_filter_and_the_literal_reading():
    for p in programs():
        u = p.universe
        for x in u.subsets():
            assert ops.hd(p, x) == frozenset(r.head_set() for r in p.rules if eval_body(u, x, r))
            for r in p.rules:
                if isinstance(r.body, Conj):
                    expected = all(literal_reading(x, lit) for lit in r.body.items)
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
            assert compiled.holds(xm) == literal_reading(x, lit), (lit, x)
            # Every pair, the inconsistent ones too: ic-triv is total.
            for ym in range(1 << len(u)):
                i = ApproxPair(x, u.unmask(ym))
                assert Truth(compiled.trivial(xm, ym)) is trivial_aggregate_value(i, lit), (lit, i)


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


def reference_programs():
    """The corpus, seeded programs of 1 to 4 atoms with and without
    aggregates, and a program with general formula bodies."""
    seeded = [
        generate_program(GeneratorConfig(atoms=n, rules=n + 1, aggregate_probability=aggregates, seed=10 * n + k))
        for n in range(1, 5)
        for aggregates in (0.0, 0.5)
        for k in range(3)
    ]
    return [*corpus.programs(), *seeded, parse(FORMULA_PROGRAMS[0])]


def meet(sets):
    return frozenset.intersection(*sets)


def join(sets):
    return frozenset().union(*sets)


def lifted_dmt_det(p, i):
    pair = ops.dmt_det(p, i)
    return NdPair(frozenset((pair.lower,)), frozenset((pair.upper,)))


# The public function of each operator `apply` reads on an interval.
INTERVAL_REFERENCES = {
    ops.OperatorKind.DMT: ops.dmt_ndao,
    ops.OperatorKind.ULTIMATE: ops.ultimate_ndao,
    ops.OperatorKind.GZ: ops.gz_ndao,
    ops.OperatorKind.DMT_DET: lifted_dmt_det,
}


def value_or_refusal(fn, *args):
    try:
        return fn(*args)
    except AftlabError as e:
        return type(e)


def test_reference_operators_equal_their_definitions():
    """`ops.apply` for every operator at every consistent pair, and for `ic`
    and `ic-triv` at every pair, against the definitions on frozensets: `hd`
    the heads of the bodies `eval_body` makes true, `ic` their hitting sets,
    `dmt` the hitting sets of the meet and the join of `hd` over the
    interval, `ultimate` the union of `ic` over it, `gz` `ic` on a total pair
    and ({∅}, {A}) elsewhere, `dmt-det` the meet and the join of the fired
    heads' atoms over the interval, and the four-valued operators the hitting
    sets of the heads whose body reading has the lower bit and the upper bit
    (`four.eval_pair`). Also `hd`, `ic` and `_fired_atoms` at every set. The
    public functions of `dmt`, `ultimate`, `gz` and `dmt-det` (lifted) give
    what `apply` gives at every pair, and refuse the same pairs with the
    same error: an inconsistent pair, or any pair of `dmt-det` on a program
    with a disjunctive head."""
    OK = ops.OperatorKind
    tested = reference_programs()
    assert any(p.compile().classification.has_aggregates for p in tested)
    assert any(p.compile().classification.shape == prog.SHAPE_GENERAL for p in tested)
    for p in tested:
        u, cls = p.universe, p.compile().classification
        hd = {x: frozenset(r.head_set() for r in p.rules if eval_body(u, x, r)) for x in u.subsets()}
        ic = {x: brute_force_hitting_sets(heads) for x, heads in hd.items()}
        fired = {x: join(heads) for x, heads in hd.items()}
        for x in u.subsets():
            assert (ops.hd(p, x), ops.ic(p, x), ops._fired_atoms(p, x)) == (hd[x], ic[x], fired[x]), (p.text, x)
        four_valued = [OK.IC_TRIV] if cls.has_aggregates else [OK.IC_TRIV, OK.IC]
        for i in all_pairs(p):
            lower, upper = (brute_force_hitting_sets(heads_at_least(p, i, t)) for t in (Truth.C, Truth.U))
            for kind in four_valued:
                assert ops.apply(kind, p, i) == NdPair(lower, upper), (p.text, kind, i)
        for i in u.consistent_pairs():
            interval = list(u.interval(i.lower, i.upper))
            everywhere, somewhere = meet([hd[z] for z in interval]), join([hd[z] for z in interval])
            gathered = join([ic[z] for z in interval])
            expected = {
                OK.DMT: NdPair(brute_force_hitting_sets(everywhere), brute_force_hitting_sets(somewhere)),
                OK.ULTIMATE: NdPair(gathered, gathered),
                OK.GZ: NdPair(ic[i.lower], ic[i.lower]) if i.is_total else NdPair({frozenset()}, {u.full()}),
            }
            if cls.atomic_heads:
                atoms = [fired[z] for z in interval]
                expected[OK.DMT_DET] = NdPair({meet(atoms)}, {join(atoms)})
            for kind, value in expected.items():
                assert ops.apply(kind, p, i) == INTERVAL_REFERENCES[kind](p, i) == value, (p.text, kind, i)
        for i in all_pairs(p):
            for kind, reference in INTERVAL_REFERENCES.items():
                found = value_or_refusal(ops.apply, kind, p, i)
                assert found == value_or_refusal(reference, p, i), (p.text, kind, i)
                if kind is OK.DMT_DET and not cls.atomic_heads:
                    assert found is ProgramClassError, (p.text, i)
                elif not i.is_consistent:
                    assert found is InconsistentPairError, (p.text, kind, i)
        refused = ([OK.IC] if cls.has_aggregates else []) + ([] if cls.atomic_heads else [OK.DMT_DET])
        for kind in refused:
            with pytest.raises(ProgramClassError):
                ops.apply(kind, p, ApproxPair(frozenset(), u.full()))


def membership_programs():
    for seed in range(32):
        cfg = GeneratorConfig(atoms=1 + seed % 4, rules=1 + seed % 3, aggregate_probability=0.6 * (seed % 2), seed=seed)
        yield generate_program(cfg)
    yield from (parse(text) for text in FORMULA_PROGRAMS)


def test_membership_tests_equal_the_materialised_families():
    """At every pair (x, y), the inconsistent ones too: bit x of the member
    row at fixed y is whether x is in the lower set, and bit y of the upper
    member row at fixed x whether y is in the upper set."""
    for p in membership_programs():
        u = p.universe
        lower_rows = [ops.member_row(p, m) for m in range(1 << len(u))]
        upper_rows = [ops.member_row(p, m, upper=True) for m in range(1 << len(u))]
        for i in all_pairs(p):
            xm, ym = u.pair_key(i)
            lower = ops.hitting_sets(heads_at_least(p, i, Truth.C))
            upper = ops.hitting_sets(heads_at_least(p, i, Truth.U))
            assert lower_rows[ym] >> xm & 1 == (i.lower in lower), (p.text, i)
            assert upper_rows[xm] >> ym & 1 == (i.upper in upper), (p.text, i)


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
    clear_memos()
    calls = []
    hitting_sets = ops.hitting_sets

    def counting(heads):
        calls.append(heads)
        return hitting_sets(heads)

    monkeypatch.setattr(ops, "hitting_sets", counting)
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
    calls = _count_hitting_sets(monkeypatch)
    path = str(corpus.path("disjunctive_self_defeat"))
    assert cli.main(["eval", "--program", path, "--operator", "ic", "--pair", ";p,q", "--format", "json"]) == 0
    assert len(calls) == 2


def test_the_laws_build_each_family_once_per_program(monkeypatch):
    calls = _count_hitting_sets(monkeypatch)
    for name in ("disjunctive_self_defeat", "aggregate_cycle"):
        p = parse(corpus.text(name))
        calls.clear()
        laws.run_laws([p])
        built = list(calls)
        assert built and len(built) == len(set(built)), name
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
    seeded = [
        generate_program(GeneratorConfig(atoms=1 + seed % 3, rules=3, aggregate_probability=0.5 * (seed % 2), seed=seed))
        for seed in range(16)
    ]
    for p in [*corpus.programs(), *seeded]:
        clear_memos()
        visits = [(kind, i) for kind in ops.OperatorKind for i in all_pairs(p)]
        first = apply_values(p, visits)
        assert any(not isinstance(v, type) for v in first.values()), p.text
        clear_memos()
        assert apply_values(parse(p.text), visits[::-1]) == first, p.text


# Atomic heads and an aggregate: every operator but `ic` takes it.
STORE_PROGRAM = "p :- not r.\nq :- not p.\nr :- #sum{1:p; 2:q} > 1.\ns :- p, not q.\n"


def test_apply_keeps_each_value_on_the_compiled_form():
    p = parse(STORE_PROGRAM)
    values = p.compile().values
    for kind in ops.OperatorKind:
        for i in p.universe.consistent_pairs():
            try:
                first = ops.apply(kind, p, i)
            except ProgramClassError:
                continue
            assert values[kind, i] is first
            assert ops.apply(kind, p, i) is first
    assert {kind for kind, _ in values} == set(ops.OperatorKind) - {ops.OperatorKind.IC}
    assert len(values) == 5 * 3 ** len(p.universe)
    # A fresh parse is an equal program with a store of its own, empty.
    assert parse(p.text).compile().values == {}


def test_a_kept_value_is_found_without_a_call_into_python(monkeypatch):
    p = parse(STORE_PROGRAM)
    i = ApproxPair(frozenset(), frozenset("pq"))
    kept = {kind: ops.apply(kind, p, i) for kind in ops.OperatorKind if kind is not ops.OperatorKind.IC}
    hashes = []
    program_hash = prog.Program.__hash__

    def counting_hash(program):
        hashes.append(program)
        return program_hash(program)

    monkeypatch.setattr(prog.Program, "__hash__", counting_hash)
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        found = {kind: ops.apply(kind, p, i) for kind in kept}
    finally:
        sys.setprofile(None)
    assert all(found[kind] is kept[kind] for kind in kept)
    assert hashes == []
    # `apply` alone runs in Python: no `Program.__hash__`, no `Enum.__hash__`.
    assert [name for name in calls if name != "<dictcomp>"] == ["apply"] * len(kept)


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
        assert (kind, i) not in p.compile().values, kind
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
    # #c has only its lower bit set, so its rule fires in the lower
    # four-valued head selection; but hd is two-valued and C is not T.
    p = parse("p :- #c.\nq :- #true.\n")
    for x in p.universe.subsets():
        assert ops.hd(p, x) == frozenset({frozenset({"q"})})
        assert four.eval_pair(p.universe, ApproxPair(x, x), four.Const(Truth.C)) is Truth.C
    assert ops.ic_lower_set(p, ApproxPair(frozenset(), frozenset())) == ops.hitting_sets(
        frozenset({frozenset({"p"}), frozenset({"q"})})
    )
