from __future__ import annotations

import pytest

from aftlab import corpus, semantics as sem
from aftlab.lattice import AftlabError, ApproxPair
from aftlab.operators import OperatorKind

# Every semantics under each operator it takes, None for none.
TAKES = {sem.ANY_OPERATOR: list(OperatorKind), sem.DETERMINISTIC_OPERATOR: [OperatorKind.DMT_DET],
         sem.NO_OPERATOR: [None]}
SEMANTICS_CELLS = [(name, kind) for name, (takes, _) in sem.SEMANTICS.items() for kind in TAKES[takes]]


def atoms(*names: str) -> frozenset[str]:
    return frozenset(names)


def pair(lower: str = "", upper: str = "") -> ApproxPair:
    def side(text: str) -> frozenset[str]:
        return frozenset(part for part in text.split(",") if part)

    return ApproxPair(side(lower), side(upper))


def family(*sets) -> frozenset[frozenset[str]]:
    return frozenset(frozenset(s) for s in sets)


def value_or_refusal(fn, *args):
    try:
        return fn(*args)
    except AftlabError as e:
        return type(e)


# The corpus programs the tests take as session fixtures, by fixture name.
CORPUS_FIXTURES = {name: name for name in ("disjunctive_self_defeat", "negation_vs_positive_loop",
                                           "negation_loop_disjunction", "aggregate_cycle")}
CORPUS_FIXTURES.update({f"{name}_program": name for name in ("no_total_stable", "sum_chain", "sum_split")})
for _fixture, _name in CORPUS_FIXTURES.items():
    globals()[_fixture] = pytest.fixture(scope="session", name=_fixture)(lambda _name=_name: corpus.load(_name))
