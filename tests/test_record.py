"""The value types are records (`aftlab.record`): the semantics they kept
from the frozen dataclasses they replaced, checked for every record class."""

import copy
import pickle
from dataclasses import make_dataclass
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import reference as ref
from aftlab import four, program as prog
from aftlab.four import Truth
from aftlab.generator import GeneratorConfig
from aftlab.lattice import ApproxPair, AtomUniverse
from aftlab.laws import LawOutcome
from aftlab.record import Record, asdict, record
from aftlab.semantics import SemanticsResult


def _program() -> prog.Program:
    p = prog.parse("p | q :- not r, #count{1:p; 1:q} >= 1.\ns :- (p | not q).\n")
    hash(p)
    p.compile()
    return p


def _universe() -> AtomUniverse:
    u = AtomUniverse.of(["q", "p"])
    u.unmask(u.mask(["p", "q"]))
    return u


_ENTRY = prog.SetTermEntry((Fraction(1), Fraction(-1, 2)), ("p", "q"))
_AGG = prog.AggregateAtom(prog.AggFunc.SUM, prog.SetTerm((_ENTRY,)), prog.Comparator.GE, Fraction(1))

# One value of each record class; each is built anew for every test, so that
# a kept hash, compiled form or set map is there to be left out of a pickle.
SAMPLES = {
    four.Atom: lambda: four.Atom("p"),
    four.Const: lambda: four.Const(Truth.U),
    four.Not: lambda: four.Not(four.Atom("p")),
    four.And: lambda: four.And(four.Atom("p"), four.Const(Truth.T)),
    four.Or: lambda: four.Or(four.Atom("p"), four.Atom("q")),
    prog.SetTermEntry: lambda: _ENTRY,
    prog.SetTerm: lambda: _AGG.term,
    prog.AggregateAtom: lambda: _AGG,
    prog.PositiveAtom: lambda: prog.PositiveAtom("p"),
    prog.NegatedAtom: lambda: prog.NegatedAtom("p"),
    prog.PositiveAgg: lambda: prog.PositiveAgg(_AGG),
    prog.NegatedAgg: lambda: prog.NegatedAgg(_AGG),
    prog.Conj: lambda: prog.Conj((prog.PositiveAtom("p"), prog.NegatedAtom("q"))),
    prog.GeneralFormula: lambda: prog.GeneralFormula(four.Not(four.Atom("q"))),
    prog.Rule: lambda: prog.Rule(("p", "q"), prog.Conj(())),
    prog.Program: _program,
    prog.Classification: lambda: prog.Classification(prog.SHAPE_GENERAL, True, False, True),
    AtomUniverse: _universe,
    GeneratorConfig: lambda: GeneratorConfig(atoms=4, seed=7),
    LawOutcome: lambda: LawOutcome("exactness", False, 12, "a reproducer"),
    SemanticsResult: lambda: SemanticsResult(
        "stable", (ApproxPair(frozenset("p"), frozenset("pq")),), "ic", "0123456789ab", ("p", "q")
    ),
}
CLASSES = list(SAMPLES)


def test_every_record_class_has_a_sample():
    assert {cls for cls in Record.__subclasses__() if cls.__module__.startswith("aftlab.")} == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_depends_on_the_class_and_the_values(cls):
    value = SAMPLES[cls]()
    fields = asdict(value)
    again = cls(*fields.values())
    assert again == value and hash(again) == hash(value) and again is not value
    assert cls(**fields) == value and {value: 1}[again] == 1
    twin = record(type(cls.__name__, (), {"__annotations__": dict.fromkeys(fields, "object")}))
    assert twin(*fields.values()) != value and value != tuple(fields.values())


def test_equal_fields_of_different_classes_differ():
    assert prog.PositiveAtom("a") != prog.NegatedAtom("a")
    assert prog.PositiveAgg(_AGG) != prog.NegatedAgg(_AGG)
    assert four.And(four.Atom("p"), four.Atom("q")) != four.Or(four.Atom("p"), four.Atom("q"))
    assert prog.PositiveAtom("a") != four.Atom("a")


def test_equal_fields_of_different_classes_hash_apart():
    """The class is hashed with the values, so records that differ only in
    their class, and programs that differ only in such a record, do not all
    collide in a memo keyed by them."""
    assert hash(prog.PositiveAtom("a")) != hash(prog.NegatedAtom("a"))
    assert hash(prog.parse("a :- b.\n")) != hash(prog.parse("a :- not b.\n"))
    programs = set(ref.fired_atom_tables())
    assert len({hash(p) for p in programs}) == len(programs) == 407


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = SAMPLES[cls]()
    for name in [*asdict(value), "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == SAMPLES[cls]()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_is_that_of_the_frozen_dataclass(cls):
    value = SAMPLES[cls]()
    fields = asdict(value)
    reference = make_dataclass(cls.__name__, list(fields), frozen=True)(**fields)
    assert repr(value) == repr(reference)


def test_repr_examples():
    assert repr(prog.PositiveAtom("p")) == "PositiveAtom(name='p')"
    assert repr(four.Not(four.Const(Truth.U))) == "Not(operand=Const(value=<Truth.U: 1>))"
    assert repr(GeneratorConfig()) == (
        "GeneratorConfig(atoms=3, rules=3, negation_probability=0.4, aggregate_probability=0.0, "
        "disjunction_width=2, seed=0)"
    )


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_pickle_or_copy_carries_the_values_alone(cls):
    value = SAMPLES[cls]()
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert getattr(copied, "__dict__", {}) == {}
        assert type(copied) is cls and copied == value and hash(copied) == hash(value)


def test_the_kept_state_lives_outside_the_fields():
    assert set(vars(_program())) == {"_hash", "_compiled"}
    assert set(vars(_universe())) == {"_bits", "_sets"}


def test_generator_config_keeps_its_keyword_defaults():
    assert GeneratorConfig() == GeneratorConfig(3, 3, 0.4, 0.0, 2, 0)
    assert GeneratorConfig(rules=5) == GeneratorConfig(3, 5)
    assert list(asdict(GeneratorConfig())) == [
        "atoms", "rules", "negation_probability", "aggregate_probability", "disjunction_width", "seed",
    ]
    with pytest.raises(TypeError):
        GeneratorConfig(colour=1)
    with pytest.raises(TypeError):
        prog.Rule(("p",))


@given(st.builds(GeneratorConfig, atoms=st.integers(1, 4)))
def test_hypothesis_builds_a_config_from_its_defaults(cfg):
    # A class that looked like a namedtuple would have its probabilities drawn.
    assert asdict(cfg) == {**asdict(GeneratorConfig()), "atoms": cfg.atoms}
