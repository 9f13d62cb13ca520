from fractions import Fraction

import pytest

from aftlab import corpus, four
from aftlab.four import Const, Truth
from aftlab.generator import GeneratorConfig, generate_program
from aftlab.lattice import AftlabError, ApproxPair, AtomUniverse, UnknownAtomError
from aftlab.operators import OperatorKind
from aftlab.program import (
    MAX_FORMULA_DEPTH,
    AggFunc,
    AggregateAtom,
    Comparator,
    CompiledAggregate,
    Conj,
    FormulaDepthError,
    GeneralFormula,
    NegatedAgg,
    NegatedAtom,
    ParseError,
    PositiveAgg,
    PositiveAtom,
    Program,
    ProgramClassError,
    Rule,
    SetTerm,
    SetTermEntry,
    classify,
    eval_aggregate,
    eval_body,
    eval_multiset,
    gl_transform,
    gz_reduct,
    make_program,
    parse,
    print_program,
)
from aftlab.semantics import stable_fixpoints
from conftest import atoms, pair


def agg(func, entries, cmp, bound):
    term = SetTerm(tuple(SetTermEntry(tuple(Fraction(w) for w in ws), tuple(cond)) for ws, cond in entries))
    return AggregateAtom(func, term, cmp, Fraction(bound))


def test_parse_disjunctive_rule():
    p = parse("p | q :- not q.")
    assert len(p.rules) == 1
    rule = p.rules[0]
    assert rule.head == ("p", "q")
    assert rule.body == Conj((NegatedAtom("q"),))
    assert p.universe.atoms == ("p", "q")


def test_parse_aggregate_rules():
    p = parse("p :- #sum{1:p} > 0.\np :- #sum{1:p} < 1.\n")
    assert len(p.rules) == 2
    assert classify(p).has_aggregates
    assert p.universe.atoms == ("p",)


def test_parse_empty_disjunct_is_error():
    with pytest.raises(ParseError) as err:
        parse("p | .")
    assert "atom" in str(err.value)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("p :- q & #sum{1:p} > 0.", "aggregate"),
        ("p :- #min{1:p} > 0.", "aggregate function"),
        ("p :- q ..", "expected"),
        ("p :- $q.", "unexpected character"),
        (":- q.", "atom"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert fragment in str(err.value)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("p :- q.\nr | .\n")
    assert err.value.line == 2
    assert err.value.col == 5


def test_parse_formula_body():
    p = parse("p :- (q | r) & not s.")
    body = p.rules[0].body
    assert isinstance(body, GeneralFormula)
    assert classify(p).shape == "general"
    assert p.universe.atoms == ("p", "q", "r", "s")


def test_parse_truth_constants():
    p = parse("p :- #true & not #false.\nq :- #u.\nr :- #c.")
    assert isinstance(p.rules[0].body, GeneralFormula)
    assert p.rules[1].body == GeneralFormula(Const(Truth.U))
    assert p.rules[2].body == GeneralFormula(Const(Truth.C))


def test_empty_body_prints_and_parses():
    p = parse("h.")
    assert p.text == "h :- .\n"
    assert parse(p.text) == p


def test_rational_weights_round_trip():
    p = parse("p :- #sum{1/2:q; 0.25:r; -1:s} >= 3/4.")
    assert parse(p.text) == p
    lit = p.rules[0].body.items[0]
    assert lit.agg.term.entries[0].weights == (Fraction(1, 2),)
    assert lit.agg.term.entries[1].weights == (Fraction(1, 4),)
    assert lit.agg.bound == Fraction(3, 4)


def test_round_trip_on_corpus():
    for name in corpus.names():
        p = corpus.load(name)
        assert parse(p.text) == p


@pytest.mark.parametrize("seed", range(60))
def test_round_trip_on_generated_programs(seed):
    cfg = GeneratorConfig(
        atoms=1 + seed % 4,
        rules=1 + seed % 4,
        aggregate_probability=0.5 if seed % 2 else 0.0,
        seed=seed,
    )
    p = generate_program(cfg)
    assert parse(p.text) == p


def test_classify_examples():
    normal = parse("q :- not p.\np :- p.")
    assert classify(normal).shape == "normal"
    assert classify(normal).aggregate_free
    disjunctive = parse("p | q :- not q.")
    assert classify(disjunctive).shape == "disjunctively_normal"
    negated = parse("p :- not #sum{1:q} > 0.")
    assert classify(negated).has_negated_aggregates
    assert classify(parse("p :- not q.")).atomic_heads
    assert not classify(parse("p | q.")).atomic_heads
    general = classify(parse("p :- (q | not r).\nq :- not p."))
    assert general.shape == "general" and general.atomic_heads


def test_eval_multiset_examples():
    s_pq = SetTerm((SetTermEntry((Fraction(1),), ("p",)), SetTermEntry((Fraction(1),), ("q",))))
    assert eval_multiset(atoms("p", "q"), s_pq) == ((Fraction(1),), (Fraction(1),))
    assert eval_multiset(atoms(), s_pq) == ()
    s3 = SetTerm(
        (
            SetTermEntry((Fraction(1),), ("p",)),
            SetTermEntry((Fraction(2),), ("q",)),
            SetTermEntry((Fraction(-1),), ("r",)),
        )
    )
    assert eval_multiset(atoms("r"), s3) == ((Fraction(-1),),)


def test_eval_multiset_keeps_duplicates():
    term = SetTerm((SetTermEntry((Fraction(1),), ("p",)), SetTermEntry((Fraction(1),), ("p",))))
    assert eval_multiset(atoms("p"), term) == ((Fraction(1),), (Fraction(1),))


def test_eval_aggregate_examples():
    sum_pq = agg(AggFunc.SUM, [((1,), ("p",)), ((1,), ("q",))], Comparator.GT, 0)
    assert eval_aggregate(atoms("p", "q"), sum_pq) == (Truth.T, True)
    sum_s = agg(AggFunc.SUM, [((1,), ("s",))], Comparator.LT, 1)
    assert eval_aggregate(atoms(), sum_s) == (Truth.T, True)
    max_empty = agg(AggFunc.MAX, [((1,), ("p",))], Comparator.GE, 0)
    assert eval_aggregate(atoms(), max_empty) == (Truth.F, False)
    count = agg(AggFunc.COUNT, [((1,), ("p",))], Comparator.EQ, 0)
    assert eval_aggregate(atoms(), count) == (Truth.T, True)


def trivial_aggregate_value(i: ApproxPair, lit) -> Truth:
    """The compiled trivial approximation of lit at i, over the atoms p and q."""
    u = AtomUniverse.of(["p", "q"])
    return Truth(CompiledAggregate(u, lit).trivial(*u.pair_key(i)))


def test_trivial_aggregate_value_examples():
    sum_q = PositiveAgg(agg(AggFunc.SUM, [((1,), ("q",))], Comparator.GT, 0))
    assert trivial_aggregate_value(pair("q", "q"), sum_q) is Truth.T
    assert trivial_aggregate_value(pair("", ""), sum_q) is Truth.F
    assert trivial_aggregate_value(pair("", "q"), sum_q) is Truth.U
    assert trivial_aggregate_value(pair("q", ""), sum_q) is Truth.C
    # An unknown condition leaves the value unknown even where every
    # completion of the pair would agree.
    assert trivial_aggregate_value(pair("", "q"), PositiveAgg(agg(AggFunc.SUM, [((0,), ("q",))], Comparator.GE, 0))) is Truth.U
    # Exactness is per condition, not per atom: p & q is false at both ends
    # of (∅, {p}), so the count is known to be 0 there.
    count_pq = agg(AggFunc.COUNT, [((1,), ("p", "q"))], Comparator.LT, 1)
    assert trivial_aggregate_value(pair("", "p"), PositiveAgg(count_pq)) is Truth.T
    assert trivial_aggregate_value(pair("", "p"), NegatedAgg(count_pq)) is Truth.F
    assert trivial_aggregate_value(pair("p", "p,q"), PositiveAgg(count_pq)) is Truth.U
    # An undefined value makes the literal false either way round.
    max_p = agg(AggFunc.MAX, [((1,), ("p",))], Comparator.GE, 0)
    assert trivial_aggregate_value(pair("", ""), PositiveAgg(max_p)) is Truth.F
    assert trivial_aggregate_value(pair("", ""), NegatedAgg(max_p)) is Truth.F
    # One condition only below and one only above: both readings hold.
    sum_pq = agg(AggFunc.SUM, [((1,), ("p",)), ((1,), ("q",))], Comparator.GT, 5)
    assert trivial_aggregate_value(pair("p", "q"), PositiveAgg(sum_pq)) is Truth.T


@pytest.mark.parametrize(
    "text",
    ["q :- p.", "p :- q.", "p :- not q.", "p :- #count{1:q} < 1.", "p :- #sum{1:p; 1:p & q} > 0.", "p :- q | p."],
)
def test_an_atom_outside_the_universe_is_refused(text):
    # q is read nowhere as false: the head, the body, each aggregate
    # condition and the atoms of a formula body are compiled through
    # AtomUniverse.mask.
    p = make_program(parse(text).rules, AtomUniverse.of(["p"]))
    with pytest.raises(UnknownAtomError, match="'q'"):
        p.compile()
    with pytest.raises(UnknownAtomError, match="'q'"):
        stable_fixpoints(OperatorKind.DMT, p)


def test_eval_body_examples(aggregate_cycle):
    fired = [r for r in aggregate_cycle.rules if eval_body(aggregate_cycle.universe, atoms("s"), r)]
    assert [r.head for r in fired] == [("q", "r")]
    empty = parse("p :- .")
    assert eval_body(empty.universe, atoms(), empty.rules[0])
    neg = parse("p :- not q.")
    assert not eval_body(neg.universe, atoms("q"), neg.rules[0])


def test_gl_transform_examples():
    p = parse("p | q :- not q.")
    out = gl_transform(p, pair("p", "p"))
    assert out.rules[0].body == GeneralFormula(Const(Truth.T))
    positive = parse("p :- q.\nr :- .")
    assert gl_transform(positive, pair()).rules == positive.rules
    loop = parse("p :- not p.")
    out = gl_transform(loop, pair("", "p"))
    assert out.rules[0].body == GeneralFormula(Const(Truth.U))
    assert out.universe == loop.universe


def test_gl_transform_class_errors():
    with pytest.raises(ProgramClassError):
        gl_transform(parse("p :- #sum{1:q} > 0."), pair())
    with pytest.raises(ProgramClassError):
        gl_transform(parse("p :- q | r."), pair())


def test_gz_reduct_golden_texts(sum_chain_program, sum_split_program):
    assert gz_reduct(sum_chain_program, atoms("p", "q")).text == "p :- p, q.\np :- q.\nq :- .\n"
    assert gz_reduct(sum_split_program, atoms("p")).text == "p :- p.\n"
    assert gz_reduct(sum_split_program, atoms()).text == "p :- .\n"


def test_gz_reduct_is_aggregate_free_and_keeps_universe(sum_chain_program):
    for x in sum_chain_program.universe.subsets():
        reduct = gz_reduct(sum_chain_program, x)
        assert classify(reduct).aggregate_free
        assert classify(reduct).shape != "general"
        assert reduct.universe == sum_chain_program.universe


def test_gz_reduct_identity_on_aggregate_free_programs():
    for name in ("disjunctive_self_defeat", "negation_vs_positive_loop", "negation_loop_disjunction", "no_total_stable", "ht_strictness"):
        p = corpus.load(name)
        for x in p.universe.subsets():
            assert gz_reduct(p, x) == p


def test_gz_reduct_rejects_negated_aggregates():
    with pytest.raises(ProgramClassError):
        gz_reduct(parse("p :- not #sum{1:q} > 0."), atoms())


def test_eval_body_agrees_with_formula_reading():
    from aftlab.program import body_formula

    for seed in range(30):
        p = generate_program(GeneratorConfig(atoms=3, rules=3, seed=seed))
        if classify(p).has_aggregates:
            continue
        for rule in p.rules:
            formula = body_formula(rule)
            for x in p.universe.subsets():
                assert eval_body(p.universe, x, rule) == (
                    four.eval_two(p.universe, x, formula) is Truth.T
                )


def test_print_formula_parenthesization():
    p = parse("p :- not (q & r) | s.")
    assert parse(p.text) == p
    q = parse("p :- q & (r | s).")
    assert parse(q.text) == q


def _deep(step, height):
    f = four.Atom("q")
    for _ in range(height):
        f = step(f)
    return f


@pytest.mark.parametrize(
    "step", [four.Not, lambda f: four.And(f, four.Atom("r"))], ids=["not-chain", "and-chain"]
)
def test_formulas_built_deeper_than_the_bound_are_refused(step):
    deep = (Rule(("p",), GeneralFormula(_deep(step, 5000))),)
    with pytest.raises(FormulaDepthError):
        make_program(deep)
    with pytest.raises(FormulaDepthError):
        Program(deep, make_program((Rule(("p", "q", "r"), Conj(())),)).universe).compile()
    at_bound = make_program((Rule(("p",), GeneralFormula(_deep(step, MAX_FORMULA_DEPTH))),))
    assert four.formula_depth(at_bound.rules[0].body.formula) == MAX_FORMULA_DEPTH
    assert at_bound.compile().rules[0].formula is not None


def test_rules_with_an_empty_head_are_refused():
    rules = (Rule((), Conj(())), Rule(("p",), Conj(())))
    with pytest.raises(AftlabError, match="head"):
        make_program(rules, AtomUniverse.of(["p"]))
    with pytest.raises(AftlabError, match="head"):
        Program(rules, AtomUniverse.of(["p"])).compile()
