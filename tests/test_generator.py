import pytest

from aftlab.generator import ATOM_POOL, GeneratorConfig, generate_program
from aftlab.lattice import AftlabError
from aftlab.program import classify


def test_seed_determinism_golden():
    cfg = GeneratorConfig(atoms=2, rules=2, seed=1)
    assert generate_program(cfg).text == "p :- not q, p.\np | q :- q, not p, p.\n"
    assert generate_program(cfg) == generate_program(cfg)


def test_different_seeds_differ():
    texts = {generate_program(GeneratorConfig(atoms=3, rules=3, seed=s)).text for s in range(8)}
    assert len(texts) > 1


@pytest.mark.parametrize("seed", range(25))
def test_bounds_respected(seed):
    cfg = GeneratorConfig(atoms=3, rules=4, disjunction_width=2, aggregate_probability=0.5, seed=seed)
    p = generate_program(cfg)
    assert len(p.rules) == 4
    assert set(p.universe.atoms) <= set(ATOM_POOL[:3])
    assert all(1 <= len(r.head) <= 2 for r in p.rules)


def test_zero_aggregate_probability_is_aggregate_free():
    for seed in range(20):
        p = generate_program(GeneratorConfig(atoms=3, rules=4, aggregate_probability=0.0, seed=seed))
        assert classify(p).aggregate_free


def test_width_one_yields_normal_programs():
    for seed in range(20):
        p = generate_program(GeneratorConfig(atoms=3, rules=4, disjunction_width=1, seed=seed))
        assert classify(p).shape == "normal"


def test_invalid_configs_rejected():
    with pytest.raises(AftlabError):
        generate_program(GeneratorConfig(atoms=0))
    with pytest.raises(AftlabError):
        generate_program(GeneratorConfig(rules=0))
    with pytest.raises(AftlabError):
        generate_program(GeneratorConfig(atoms=99))
    with pytest.raises(AftlabError):
        generate_program(GeneratorConfig(negation_probability=1.5))
    with pytest.raises(AftlabError):
        generate_program(GeneratorConfig(aggregate_probability=-0.1))


def test_weights_and_bounds_are_ints():
    programs = [generate_program(GeneratorConfig(atoms=3, rules=4, aggregate_probability=0.8, seed=s)) for s in range(20)]
    aggs = [lit.agg for p in programs for rule in p.rules for lit in rule.body.items if hasattr(lit, "agg")]
    numbers = [w for a in aggs for e in a.term.entries for w in e.weights] + [a.bound for a in aggs]
    assert numbers and {type(x) for x in numbers} == {int}
