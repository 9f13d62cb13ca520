import pytest

from aftlab import corpus, four, laws, operators as ops, semantics as sem
from aftlab.generator import GeneratorConfig, generate_program
from aftlab.lattice import ApproxPair, CapExceededError, InconsistentPairError, leq_i, leq_t
from aftlab.operators import OperatorKind
from aftlab.program import ProgramClassError, body_formula, classify, gl_transform, gz_reduct, parse
from conftest import atoms, pair
from test_interval_tables import PROGRAMS as INTERVAL_TABLE_PROGRAMS


def family(*sets):
    return frozenset(frozenset(s) for s in sets)


NDAO_KINDS = (OperatorKind.IC, OperatorKind.DMT, OperatorKind.ULTIMATE, OperatorKind.GZ, OperatorKind.IC_TRIV)


def test_fixpoints_examples(disjunctive_self_defeat):
    fps = sem.fixpoints(OperatorKind.IC, disjunctive_self_defeat)
    assert pair("", "p,q") in fps
    assert pair("p", "p") in fps
    assert sem.fixpoints(OperatorKind.IC, parse("")) == [pair()]


def test_complete_lower_stable_examples(disjunctive_self_defeat):
    assert sem.complete_lower_stable(OperatorKind.IC, disjunctive_self_defeat, atoms("p")) == family({"p"}, {"q"})
    assert sem.complete_lower_stable(OperatorKind.IC, disjunctive_self_defeat, atoms("q")) == family(())
    empty = parse("")
    assert sem.complete_lower_stable(OperatorKind.IC, empty, atoms()) == family(())


def test_complete_upper_stable_examples(disjunctive_self_defeat):
    assert sem.complete_upper_stable(OperatorKind.IC, disjunctive_self_defeat, atoms()) == family({"p"}, {"q"})
    assert sem.complete_upper_stable(OperatorKind.IC, disjunctive_self_defeat, atoms("p")) == family({"p"}, {"q"})
    assert sem.complete_upper_stable(OperatorKind.IC, parse(""), atoms()) == family(())


def test_stable_fixpoints_examples(disjunctive_self_defeat):
    assert sem.stable_fixpoints(OperatorKind.IC, disjunctive_self_defeat) == [pair("", "q"), pair("p", "p")]
    assert pair("p", "p") in sem.stable_fixpoints(OperatorKind.DMT, disjunctive_self_defeat)
    assert sem.stable_fixpoints(OperatorKind.IC, parse("p :- .")) == [pair("p", "p")]


def test_total_stable_examples(disjunctive_self_defeat, sum_chain_program, sum_split_program):
    assert sem.total_stable_fixpoints(OperatorKind.IC, disjunctive_self_defeat) == [atoms("p")]
    assert sem.total_stable_fixpoints(OperatorKind.GZ, sum_split_program) == []
    assert sem.total_stable_fixpoints(OperatorKind.DMT_DET, sum_split_program) == [atoms("p")]


def test_kk_examples(negation_vs_positive_loop):
    assert sem.kk_fixpoint_det(parse("p :- .")) == pair("p", "p")
    assert sem.kk_fixpoint_det(negation_vs_positive_loop) == pair("", "p,q")
    assert sem.kk_fixpoint_det(parse("p :- p.")) == pair("", "p")


def test_kk_is_the_information_least_deterministic_fixpoint(negation_vs_positive_loop):
    for p in (negation_vs_positive_loop, parse("p :- p."), parse("p :- not p."), parse("q :- not q.")):
        kk = sem.kk_fixpoint_det(p)
        det_fixpoints = [
            i for i in p.universe.consistent_pairs() if ops.dmt_det(p, i) == i
        ]
        assert kk in det_fixpoints
        assert all(leq_i(kk, i) for i in det_fixpoints)


def test_wf_examples(negation_vs_positive_loop):
    assert sem.wf_fixpoint_det(parse("p :- not p.")) == pair("", "p")
    assert sem.wf_fixpoint_det(parse("p :- .")) == pair("p", "p")
    assert sem.wf_fixpoint_det(negation_vs_positive_loop) == pair("q", "q")
    assert sem.wf_fixpoint_det(parse("q :- not q.")) == pair("", "q")


def test_wf_is_least_among_det_stable(negation_vs_positive_loop):
    stable = sem.det_stable_fixpoints(negation_vs_positive_loop)
    wf = sem.wf_fixpoint_det(negation_vs_positive_loop)
    assert wf in stable
    assert all(leq_i(wf, i) for i in stable)


def test_det_requires_atomic_heads(disjunctive_self_defeat):
    with pytest.raises(ProgramClassError):
        sem.kk_fixpoint_det(disjunctive_self_defeat)
    with pytest.raises(ProgramClassError):
        sem.wf_fixpoint_det(disjunctive_self_defeat)


def test_ht_models_no_total_stable_program(no_total_stable_program):
    u = no_total_stable_program.universe
    models = sem.ht_models_program(no_total_stable_program)
    expected = [
        i
        for i in u.consistent_pairs()
        if "p" in i.upper
        and i.upper & {"q", "s"}
        and ("s" in i.upper or "q" in i.lower)
        and ("q" in i.upper or "s" in i.lower)
    ]
    assert models == expected


def test_ht_models_edge_cases():
    empty = parse("")
    assert sem.ht_models_program(empty) == [pair()]
    witness = parse("b :- not c.")
    assert pair("", "c") in sem.ht_models_program(witness)
    with pytest.raises(ProgramClassError):
        sem.ht_models_program(parse("p :- #sum{1:q} > 0."))


def test_ht_pairs_matches_rule_level_on_corpus():
    for name in ("disjunctive_self_defeat", "negation_vs_positive_loop", "negation_loop_disjunction", "no_total_stable", "ht_strictness"):
        p = corpus.load(name)
        assert sem.ht_pairs(OperatorKind.IC, p) == sem.ht_models_program(p)


def test_ht_pairs_guarded_choice():
    p = corpus.load("guarded_choice_lt1")
    for kind in (OperatorKind.GZ, OperatorKind.DMT, OperatorKind.ULTIMATE):
        ht = sem.ht_pairs(kind, p)
        assert pair("", "p") in ht and pair("", "q") in ht
        assert pair() not in ht and pair("", "s") not in ht


def test_total_fixpoints_are_ht_pairs(disjunctive_self_defeat, aggregate_cycle):
    for p in (disjunctive_self_defeat, aggregate_cycle):
        for kind in NDAO_KINDS:
            if kind is OperatorKind.IC and classify(p).has_aggregates:
                continue
            ht = set(sem.ht_pairs(kind, p))
            for i in sem.fixpoints(kind, p):
                if i.is_total:
                    assert i in ht


def test_no_total_stable(no_total_stable_program):
    assert sem.min_t(sem.ht_pairs(OperatorKind.IC, no_total_stable_program)) == [
        pair("", "p,q,s"),
        pair("q", "p,q"),
        pair("s", "p,s"),
    ]
    assert sem.seq(OperatorKind.IC, no_total_stable_program) == [pair("q", "p,q"), pair("s", "p,s")]


def test_seq_coincides_with_total_stable_when_total_exists(disjunctive_self_defeat):
    assert sem.seq(OperatorKind.IC, disjunctive_self_defeat) == [pair("p", "p")]


def test_seq_guarded_choice_all_operators():
    p = corpus.load("guarded_choice_lt1")
    for kind in (OperatorKind.GZ, OperatorKind.DMT, OperatorKind.ULTIMATE):
        assert sem.seq(kind, p) == [pair("", "p"), pair("", "q")]


def test_truth_minimal_planes_give_min_t_of_the_ht_pairs():
    """`seq` and `seq-approx` decode only the truth-minimal HT pairs
    (`DigitPlanes.minimal_t`): the list of `min_t(ht_pairs(kind, p))`, order
    included, under every operator that `ht` takes."""
    seeded = [
        generate_program(GeneratorConfig(atoms=n, rules=n + s % n, disjunction_width=width,
                                         aggregate_probability=aggregates, seed=s))
        for n in range(1, 7) for width in (1, 2, 3) for aggregates in (0.0, 0.5) for s in range(10)
    ]
    cases = 0
    for p in [*corpus.programs(), *seeded]:
        for kind in OperatorKind:
            try:
                ht = sem.ht_pairs(kind, p)
            except ProgramClassError:
                continue
            minimal = sem.min_t(ht)
            assert sem._ht_plane_pairs(kind, p, True) == minimal, (p.text, kind)
            assert sem.seq(kind, p) == sem.mc(minimal), (p.text, kind)
            assert sem.seq_no_difference(kind, p) == [
                a for a in minimal if not any(b != a and leq_i(a, b) for b in minimal)
            ], (p.text, kind)
            cases += 1
    assert cases >= 1800


def test_seq_approx_examples(no_total_stable_program):
    assert sem.seq_no_difference(OperatorKind.IC, parse("")) == [pair()]
    for name in ("disjunctive_self_defeat", "negation_vs_positive_loop", "negation_loop_disjunction", "no_total_stable", "ht_strictness"):
        p = corpus.load(name)
        approx = set(sem.seq_no_difference(OperatorKind.IC, p))
        assert approx >= set(sem.seq(OperatorKind.IC, p))
        for x in sem.total_stable_fixpoints(OperatorKind.IC, p):
            assert ApproxPair(x, x) in approx


def test_three_valued_stable_examples(disjunctive_self_defeat):
    models = sem.three_valued_stable(disjunctive_self_defeat)
    assert pair("p", "p") in models and pair("", "q") in models
    assert sem.three_valued_stable(parse("p :- .")) == [pair("p", "p")]
    assert sem.three_valued_stable(parse("p :- not p.")) == [pair("", "p")]
    with pytest.raises(ProgramClassError):
        sem.three_valued_stable(parse("p :- #sum{1:q} > 0."))


def test_gz_answer_sets_examples(sum_chain_program, sum_split_program):
    assert sem.gz_answer_sets(sum_chain_program) == [atoms("p", "q")]
    assert sem.gz_answer_sets(sum_split_program) == []
    with pytest.raises(ProgramClassError):
        sem.gz_answer_sets(parse("p :- not #sum{1:q} > 0."))


def is_three_valued_stable(p, i, pairs):
    """Przymusinski's definition: i is a model of p's GL transformation at i
    (`sem.is_model`) and no other consistent pair j truth-below i, among
    `pairs` (every consistent pair of p's universe), is."""
    return sem.is_model(p, i) and not any(j != i and leq_t(j, i) and sem.is_model(p, i, j) for j in pairs)


def three_valued_stable_reference(p):
    """The three-valued stable models of a plain program by the definition,
    in `consistent_pairs` order."""
    pairs = list(p.universe.consistent_pairs())
    return [i for i in pairs if is_three_valued_stable(p, i, pairs)]


def plain_programs(atoms, seeds):
    """Seeded programs without aggregates: widths 1-3, negation 0.4 and 0.7,
    1 to 2n rules."""
    for n in atoms:
        for width in (1, 2, 3):
            for negation in (0.4, 0.7):
                for s in seeds:
                    yield generate_program(GeneratorConfig(atoms=n, rules=1 + s % (2 * n), seed=s,
                                                           negation_probability=negation, disjunction_width=width))


def test_three_valued_stable_equals_the_definition():
    programs = [p for p in corpus.programs() if classify(p).plain] + list(plain_programs(range(1, 5), range(8)))
    assert sum(len(sem.three_valued_stable(p)) > 1 for p in programs) >= 30
    for p in programs:
        assert sem.three_valued_stable(p) == three_valued_stable_reference(p), p.text


def test_ic_stable_fixpoints_are_three_valued_stable_with_the_same_totals():
    """`ic` asks y to be minimal among all sets, not only among the supersets
    of x: every stable fixpoint of `ic` is three-valued stable, with the same
    total pairs, and not conversely (README "Programs are compiled once")."""
    strict = 0
    for p in plain_programs(range(1, 7), range(10)):
        ic_stable, three_valued = sem.stable_fixpoints(OperatorKind.IC, p), sem.three_valued_stable(p)
        assert set(ic_stable) <= set(three_valued), p.text
        assert [i for i in ic_stable if i.is_total] == [i for i in three_valued if i.is_total], p.text
        strict += len(ic_stable) < len(three_valued)
    assert strict >= 10
    p = parse("p :- q, not p.\np :- not q.\np | q :- .\n")
    assert sem.three_valued_stable(p) == [pair("p", "p"), pair("q", "p,q")]
    assert sem.stable_fixpoints(OperatorKind.IC, p) == [pair("p", "p")]


def gz_answer_sets_reference(p):
    """The sets x for which (x, x) is a stable model of the reduct program
    `gz_reduct(p, x)`: a model of its GL transformation at (x, x) with no
    other such model below it in the truth order."""
    pairs = list(p.universe.consistent_pairs())
    return [x for x in p.universe.subsets() if is_three_valued_stable(gz_reduct(p, x), ApproxPair(x, x), pairs)]


def test_gz_answer_sets_equal_the_reduct_definition(sum_chain_program, sum_split_program):
    programs = [sum_chain_program, sum_split_program, parse("p :- #count{1:p & q} < 1."), parse("p :- #sum{1:p} >= 0.")]
    for s in range(150):
        cfg = GeneratorConfig(atoms=1 + s % 5, rules=1 + s % 4, aggregate_probability=0.6,
                              disjunction_width=1 + s // 5 % 2, seed=s)
        p = generate_program(cfg)
        if not classify(p).has_negated_aggregates:
            programs.append(p)
    assert sum(classify(p).has_aggregates for p in programs) >= 40
    assert sum(bool(gz_answer_sets_reference(p)) for p in programs if classify(p).has_aggregates) >= 30
    for p in programs:
        assert sem.gz_answer_sets(p) == gz_answer_sets_reference(p), p.text


def test_gz_answer_sets_equal_total_stable_on_aggregate_free_corpus():
    for name in ("disjunctive_self_defeat", "negation_vs_positive_loop", "negation_loop_disjunction", "no_total_stable", "ht_strictness"):
        p = corpus.load(name)
        assert sem.gz_answer_sets(p) == sem.total_stable_fixpoints(OperatorKind.IC, p)


def test_ic_triv_total_stable_fixpoints_are_gz_answer_sets():
    from aftlab.generator import GeneratorConfig, generate_program

    conjunctive = parse("p :- #count{1:p & q} < 1.")
    assert sem.gz_answer_sets(conjunctive) == [atoms("p")]
    assert sem.total_stable_fixpoints(OperatorKind.IC_TRIV, conjunctive) == [atoms("p")]
    # The body holds throughout [∅, {p}], but p must support itself in the
    # reduct; the trivial approximation leaves the sum unknown there.
    self_support = parse("p :- #sum{1:p} >= 0.")
    assert sem.gz_answer_sets(self_support) == []
    assert sem.total_stable_fixpoints(OperatorKind.IC_TRIV, self_support) == []
    with_aggregate_answer_set = 0
    for n in (2, 3):
        for s in range(60):
            cfg = GeneratorConfig(atoms=n, rules=1 + s % 4, aggregate_probability=0.5, seed=s)
            p = generate_program(cfg)
            if classify(p).has_negated_aggregates:
                continue
            answer_sets = sem.gz_answer_sets(p)
            assert sem.total_stable_fixpoints(OperatorKind.IC_TRIV, p) == answer_sets, p.text
            with_aggregate_answer_set += classify(p).has_aggregates and any(answer_sets)
    assert with_aggregate_answer_set >= 10


def test_gz_answer_sets_are_the_ic_triv_total_stable_fixpoints_at_five_to_eight_atoms():
    """README "Aggregates and GZ answer sets" states the relation; here on
    the first eight seeded aggregate programs per n = 5..8 that have no
    negated aggregate, where the complete stable values read rows of up to
    2^8 bits."""
    tested = with_answer_set = 0
    for n in range(5, 9):
        found = 0
        for seed in range(200):
            p = generate_program(GeneratorConfig(atoms=n, rules=n, aggregate_probability=0.5, seed=seed))
            c = classify(p)
            if c.has_negated_aggregates or not c.has_aggregates:
                continue
            answer_sets = sem.gz_answer_sets(p)
            assert sem.total_stable_fixpoints(OperatorKind.IC_TRIV, p) == answer_sets, p.text
            with_answer_set += bool(answer_sets)
            found += 1
            if found == 8:
                break
        tested += found
    assert tested == 32 and with_answer_set >= 20


def test_three_valued_total_equals_ic_total_stable_on_corpus():
    for name in ("disjunctive_self_defeat", "negation_vs_positive_loop", "negation_loop_disjunction", "no_total_stable", "ht_strictness"):
        p = corpus.load(name)
        totals = [i.lower for i in sem.three_valued_stable(p) if i.is_total]
        assert totals == sem.total_stable_fixpoints(OperatorKind.IC, p)


def test_total_stability_needs_only_the_lower_operator():
    from aftlab.generator import GeneratorConfig, generate_program

    programs = [corpus.load(n) for n in ("disjunctive_self_defeat", "negation_vs_positive_loop", "aggregate_cycle", "sum_chain")]
    programs += [generate_program(GeneratorConfig(atoms=3, rules=2, seed=s)) for s in range(10)]
    for p in programs:
        for kind in NDAO_KINDS:
            if kind is OperatorKind.IC and classify(p).has_aggregates:
                continue
            stable_totals = {i.lower for i in sem.stable_fixpoints(kind, p) if i.is_total}
            via_lower = {
                x for x in p.universe.subsets() if x in sem.complete_lower_stable(kind, p, x)
            }
            assert stable_totals == via_lower


def test_cap_is_enforced(monkeypatch):
    text = "".join(f"a{i} :- .\n" for i in range(5))
    with pytest.raises(CapExceededError):
        parse(text).compile(4)
    monkeypatch.setenv("AFTLAB_MAX_ATOMS", "4")
    with pytest.raises(CapExceededError):
        sem.fixpoints(OperatorKind.IC, parse(text))
    with pytest.raises(CapExceededError):
        sem.gz_answer_sets(parse(text))
    # A fresh program above the cap, outside the class of `ic` and `dmt-det`
    # and of the GL semantics: every sweep decides the cap first.
    text += "a0 | a1 :- #count{1:a2} >= 1.\n"
    for kind in OperatorKind:
        for sweep in (sem.fixpoints, sem.stable_fixpoints, sem.total_stable_fixpoints, sem.ht_pairs, sem.seq,
                      sem.seq_no_difference):
            with pytest.raises(CapExceededError):
                sweep(kind, parse(text))
        for complete in (sem.complete_lower_stable, sem.complete_upper_stable):
            with pytest.raises(CapExceededError):
                complete(kind, parse(text), frozenset())
    for sweep in (sem.kk_fixpoint_det, sem.det_stable_fixpoints, sem.wf_fixpoint_det, sem.ht_models_program,
                  sem.three_valued_stable, sem.gz_answer_sets):
        with pytest.raises(CapExceededError):
            sweep(parse(text))


def test_a_program_compiled_under_a_larger_cap_runs_everywhere(monkeypatch):
    monkeypatch.setenv("AFTLAB_MAX_ATOMS", "2")
    p = parse("a0.\na1 :- a0.\na2 :- not a1.\n")
    p.compile(3)
    for kind in OperatorKind:
        for sweep in (sem.fixpoints, sem.stable_fixpoints, sem.total_stable_fixpoints, sem.ht_pairs, sem.seq,
                      sem.seq_no_difference):
            sweep(kind, p)
    for sweep in (sem.kk_fixpoint_det, sem.det_stable_fixpoints, sem.wf_fixpoint_det, sem.ht_models_program,
                  sem.three_valued_stable, sem.gz_answer_sets):
        sweep(p)
    for name in sem.SEMANTICS_NAMES:
        sem.run_semantics(name, p, OperatorKind.IC if name in sem.OPERATOR_BASED else None)
    outcomes = laws.run_laws([p], max_atoms=3)
    assert [o.name for o in outcomes] == list(laws.LAW_NAMES)


def test_every_semantics_yields_its_models_once_in_increasing_mask_order():
    """`run_semantics` returns the models in the order the sweeps yield them."""
    kinds = {sem.ANY_OPERATOR: list(OperatorKind), sem.DETERMINISTIC_OPERATOR: [OperatorKind.DMT_DET],
             sem.NO_OPERATOR: [None]}
    runs = 0
    for p in INTERVAL_TABLE_PROGRAMS:
        key = p.universe.pair_key
        for name, (takes, run) in sem.SEMANTICS.items():
            for kind in kinds[takes]:
                try:
                    keys = [key(i) for i in run(p, kind)]
                except ProgramClassError:
                    continue
                runs += 1
                assert all(a < b for a, b in zip(keys, keys[1:])), (name, kind, p.text)
    assert runs == 1901


def test_run_semantics_dispatch(disjunctive_self_defeat):
    result = sem.run_semantics("stable", disjunctive_self_defeat, OperatorKind.IC)
    assert result.models == (pair("", "q"), pair("p", "p"))
    assert result.operator == "ic"
    assert result.universe == ("p", "q")
    kk = sem.run_semantics("kk", parse("p :- p."))
    assert kk.models == (pair("", "p"),)
    assert kk.operator == "dmt-det"
    with pytest.raises(Exception):
        sem.run_semantics("stable", disjunctive_self_defeat, None)


# Aggregate-free programs with 1-3 atoms and heads of width 1-3.
MASK_TEST_PROGRAMS = [
    generate_program(
        GeneratorConfig(atoms=1 + s % 3, rules=1 + s % 4, negation_probability=0.5, disjunction_width=1 + s // 3 % 3, seed=s)
    )
    for s in range(210)
]


def gl_model_reference(transformed, j):
    """Whether j is a model of a GL-transformed program, by evaluating each
    body formula and head disjunction with `four.eval_pair`."""
    u = transformed.universe
    return all(
        four.truth_leq_t(
            four.eval_pair(u, j, body_formula(r)),
            four.eval_pair(u, j, four.disj(four.Atom(a) for a in r.head)),
        )
        for r in transformed.rules
    )


def test_is_model_masks_agree_with_the_gl_transformation():
    checked = 0
    for p in MASK_TEST_PROGRAMS:
        pairs = list(p.universe.consistent_pairs())
        for i in pairs:
            transformed = gl_transform(p, i)
            assert sem.is_model(p, i) == sem.is_model(p, i, i)
            for j in pairs:
                if leq_t(j, i):
                    assert sem.is_model(p, i, j) == gl_model_reference(transformed, j), (p.text, i, j)
                    checked += 1
    assert len({len(r.head) for p in MASK_TEST_PROGRAMS for r in p.rules}) == 3
    assert checked > 10000


def test_ht_model_masks_agree_with_ht_satisfaction():
    for p in MASK_TEST_PROGRAMS:
        expected = [
            i
            for i in p.universe.consistent_pairs()
            if all(four.ht_satisfies_rule(p.universe, i, body_formula(r), r.head) for r in p.rules)
        ]
        assert sem.ht_models_program(p) == expected, p.text


def test_is_model_refuses_an_inconsistent_pair():
    # As the GL transformation it tests the models of does.
    p = parse("p :- not q.")
    inconsistent = pair("p,q", "")
    with pytest.raises(InconsistentPairError):
        gl_transform(p, inconsistent)
    with pytest.raises(InconsistentPairError):
        sem.is_model(p, inconsistent)
    with pytest.raises(InconsistentPairError):
        sem.is_model(p, inconsistent, pair())


def test_is_model_refuses_general_bodies_and_aggregates():
    for text in ("p :- q & not r.", "p :- #sum{1:q} > 0."):
        with pytest.raises(ProgramClassError):
            sem.is_model(parse(text), pair())
