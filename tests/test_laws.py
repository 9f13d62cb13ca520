import pytest

from aftlab import corpus, laws, operators as ops
from aftlab.lattice import AftlabError, NdPair
from aftlab.operators import OperatorKind
from aftlab.program import ProgramClassError


@pytest.fixture(scope="module")
def small_suite():
    return laws.suite_programs(count=40, atoms=3, rules=4, seed=0)


def test_all_laws_except_the_known_defect_pass(small_suite):
    outcomes = laws.run_laws(small_suite)
    by_name = {o.name: o for o in outcomes}
    assert set(by_name) == set(laws.LAW_NAMES)
    for name, outcome in by_name.items():
        if name == "gz-answer-sets":
            # Known irreconcilable pair of definitions: the trivial operator's
            # literal stable machinery cannot reproduce the reduct answer sets
            # (see README.md).
            assert not outcome.ok
            assert outcome.failure and "reproducer" in outcome.failure
        else:
            assert outcome.ok, f"{name}: {outcome.failure}"
            assert outcome.cases > 0


# (name, ok, cases) over 4-atom programs, recorded while every law still took
# the atom cap as an argument; gz-answer-sets fails by design (README "Known defect").
FOUR_ATOM_OUTCOMES = [
    ("monotonicity", True, 61070),
    ("exactness", True, 1958),
    ("precision-chain", True, 2454),
    ("ultimate-max", True, 6252),
    ("symmetry", True, 3908),
    ("upwards-coherence", True, 8706),
    ("ht-equality", True, 32),
    ("total-stable-ht", True, 182),
    ("seq-nonempty", True, 182),
    ("stable-t-minimal", True, 182),
    ("gz-answer-sets", False, 1),
    ("dmt-det-collapse", True, 104),
    ("prefixpoint-minimal", True, 1958),
]


def test_law_outcomes_on_four_atom_programs():
    outcomes = laws.run_laws(laws.suite_programs(40, atoms=4, rules=4, seed=400))
    assert [(o.name, o.ok, o.cases) for o in outcomes] == FOUR_ATOM_OUTCOMES


@pytest.mark.parametrize("rules", [0, -1])
def test_suite_programs_need_a_rule(rules):
    with pytest.raises(AftlabError):
        laws.suite_programs(2, rules=rules)


def test_law_selection():
    programs = corpus.programs()
    outcomes = laws.run_laws(programs, ["precision-chain", "seq-nonempty"])
    assert [o.name for o in outcomes] == ["precision-chain", "seq-nonempty"]
    assert all(o.ok for o in outcomes)


def test_unknown_law_name_rejected():
    with pytest.raises(ProgramClassError):
        laws.run_laws(corpus.programs(), ["no-such-law"])


def test_corrupted_operator_fails_with_reproducer():
    def corrupted(kind, p, i):
        value = ops.apply(kind, p, i)
        if kind is OperatorKind.GZ and i.is_total and i.lower:
            return NdPair(value.lower_set | {p.universe.full()}, frozenset({frozenset()}))
        return value

    outcomes = laws.run_laws(corpus.programs(), ["exactness"], apply_fn=corrupted)
    assert not outcomes[0].ok
    assert "reproducer" in outcomes[0].failure
    assert "gz not exact" in outcomes[0].failure


def test_ht_equality_checks_against_ht_satisfaction(monkeypatch):
    # A fault shared by both mask-computed sides (here: both drop the last
    # pair) is caught by the formula-level definition.
    ht_pairs, ht_models = laws.sem.ht_pairs, laws.sem.ht_models_program
    monkeypatch.setattr(laws.sem, "ht_pairs", lambda kind, p: ht_pairs(kind, p)[:-1])
    monkeypatch.setattr(laws.sem, "ht_models_program", lambda p: ht_models(p)[:-1])
    outcomes = laws.run_laws(corpus.programs(), ["ht-equality"])
    assert not outcomes[0].ok
    assert "differ from HT satisfaction of the rules" in outcomes[0].failure


def test_suite_programs_deterministic():
    a = [p.text for p in laws.suite_programs(10, 3, 4, 0)]
    b = [p.text for p in laws.suite_programs(10, 3, 4, 0)]
    assert a == b
    assert len(a) == 10 + len(corpus.names())


def test_prefixpoint_minimal_reads_the_operator_once_per_candidate():
    calls = []

    def counting(kind, p, i):
        calls.append((kind, p, i))
        return ops.apply(kind, p, i)

    programs = corpus.programs()
    outcome = laws.run_laws(programs, ["prefixpoint-minimal"], apply_fn=counting)[0]
    assert outcome.ok
    candidates = sum(
        len(list(laws.sem.lower_candidates(kind, p, y)))
        for p in programs
        for kind in laws._ndao_kinds(p)
        for y in p.universe.subsets()
    )
    assert len(calls) == len(set(calls)) == candidates
