"""The engine against the referee (`tests/reference.py`) on its scope: each
semantics under each operator it takes, each operator's complete stable
values, and the deterministic loops. A refusal matches by type, and one of
an operator's class by message too (`operators.check_kind_applicable`)."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import reference as ref
from aftlab import semantics as sem
from aftlab.lattice import AftlabError, ApproxPair, leq_i
from aftlab.operators import OperatorKind
from aftlab.program import ProgramClassError, classify
from conftest import SEMANTICS_CELLS, value_or_refusal


def rows():
    """(id, operator, engine, referee), each a function of the program."""
    for name, kind in SEMANTICS_CELLS:
        yield (f"{name}-{kind.value}" if kind else name, kind,
               lambda p, name=name, kind=kind: sem.run_semantics(name, p, kind).models,
               lambda p, name=name, kind=kind: tuple(ref.CELLS[name](p, kind)))
    for kind in OperatorKind:
        for side, complete, value in (("lower", sem.complete_lower_stable, ref.lower_stable),
                                      ("upper", sem.complete_upper_stable, ref.upper_stable)):
            yield (f"complete-{side}-{kind.value}", kind,
                   lambda p, kind=kind, complete=complete: {s: complete(kind, p, s) for s in p.universe.subsets()},
                   lambda p, kind=kind, value=value: value(p, kind))
    det = OperatorKind.DMT_DET
    yield "det-stable-loops", det, sem.det_stable_fixpoints, ref.det_stable
    yield ("det-complete-lower-loops", det,
           lambda p: {y: sem.complete_lower_stable(det, p, y) for y in p.universe.subsets()}, ref.det_lower_stable)


ROWS = list(rows())


def outcome(call, p, kind):
    try:
        return call(p)
    except ProgramClassError as e:
        return ProgramClassError, kind and str(e)
    except AftlabError as e:
        return type(e)


@pytest.mark.parametrize("part", ref.SCOPE)
def test_the_engine_equals_the_referee(part):
    programs, only = ref.SCOPE[part]
    rows = [row for row in ROWS if only in (None, row[1])]
    for p in dict.fromkeys(programs()):
        for row, kind, engine, referee in rows:
            assert outcome(engine, p, kind) == outcome(referee, p, kind), (row, p.text)
        ref.forget()


def test_the_scope_covers_what_each_definition_needs():
    scope = {part: programs() for part, (programs, _) in ref.SCOPE.items()}
    assert sum(all(len(r.head) == 1 for r in p.rules) for p in scope["programs"]) >= 20
    runs = [value_or_refusal(sem.run_semantics, name, p, kind)
            for p in scope["programs"] for name, kind in SEMANTICS_CELLS]
    refusals = [run for run in runs if isinstance(run, type)]
    assert len(runs) - len(refusals) == 1901 and set(refusals) == {ProgramClassError}
    assert sum(len(sem.three_valued_stable(p)) > 1 for p in scope["three-valued"]) >= 30
    aggregates = [p for p in scope["reduct"] if classify(p).has_aggregates]
    assert len(aggregates) >= 40 and sum(bool(ref.gz_answer_sets(p)) for p in aggregates) >= 30
    assert len(set(scope["exhaustive"])) == 605 and max(len(p.rules) for p in scope["exhaustive"]) == 2
    assert all(classify(p).plain and p.universe.atoms == ("a", "b") for p in scope["exhaustive"])


@pytest.mark.parametrize("part", [part for part, (_, only) in ref.SCOPE.items() if only is None])
def test_seq_of_ic_is_the_semi_equilibrium_models_of_amendola_et_al(part):
    """A measured relation, not a theorem: on every plain program of the
    scope, `seq` under `ic` gives `mc` of the h-minimal HT models."""
    for p in ref.SCOPE[part][0]():
        if classify(p).plain:
            assert sem.run_semantics("seq", p, OperatorKind.IC).models == tuple(ref.semi_equilibrium(p)), p.text


# The operators whose total fixpoints are the weakly supported models; at a
# total pair (x, x) each is ic(x). `dmt-det` is not among them: its total
# fixpoints are the supported models.
WEAKLY_SUPPORTED_KINDS = (OperatorKind.IC, OperatorKind.IC_TRIV, OperatorKind.DMT, OperatorKind.ULTIMATE,
                          OperatorKind.GZ)


def aggregate_programs():
    """Seeded programs of 1 to 5 atoms with positive and negated aggregates."""
    return ref.seeded(range(120), atoms=lambda s: 1 + s % 5, rules=lambda s: 1 + s % 4, aggregate_probability=0.7,
                      disjunction_width=lambda s: 1 + s // 5 % 2)


@pytest.mark.parametrize("part", [*ref.SCOPE, "aggregates"])
def test_total_fixpoints_are_the_weakly_supported_models_of_brass_and_dix(part):
    """A measured relation, not a cited theorem: on every program of the
    scope and on seeded aggregate programs, the total fixpoints of `ic` (on
    the aggregate-free programs), `ic-triv`, `dmt`, `ultimate` and `gz` are
    exactly the weakly supported models (`reference.weakly_supported_models`)."""
    programs = ref.SCOPE[part][0]() if part in ref.SCOPE else aggregate_programs()
    cells = found = 0
    for p in dict.fromkeys(programs):
        expected = tuple(ApproxPair(x, x) for x in ref.weakly_supported_models(p))
        found += bool(expected)
        for kind in WEAKLY_SUPPORTED_KINDS:
            if kind is OperatorKind.IC and classify(p).has_aggregates:
                continue
            models = sem.run_semantics("fixpoints", p, kind).models
            assert tuple(i for i in models if i.is_total) == expected, (kind.value, p.text)
            cells += 1
        ref.forget()
    # Measured: 6,587 cells over the six parts, 1,103 programs with a weakly supported model.
    assert cells and found, part


def atomic_head_programs():
    """The atomic-head programs of the scope, and seeded atomic-head
    programs of 1 to 5 atoms with positive and negated aggregates."""
    scope = [p for build, _ in ref.SCOPE.values() for p in build()]
    seeded = ref.seeded(range(200, 260), atoms=lambda s: 1 + s % 5, rules=lambda s: 1 + s % 5,
                        negation_probability=0.4, aggregate_probability=0.6, disjunction_width=1)
    return [p for p in dict.fromkeys(scope + seeded) if classify(p).atomic_heads]


def test_kk_and_wf_of_dmt_det_are_its_least_fixpoint_and_least_stable_fixpoint():
    """Cited, not measured: the Kripke-Kleene fixpoint of an approximator is
    its <=_i-least fixpoint, and the well-founded fixpoint its <=_i-least
    stable fixpoint (Denecker, Marek and Truszczyński 2000, 2004), so
    kk <=_i wf. Checked for `dmt-det`: the engine's `kk` and `wf` against
    the referee's fixpoints and stable fixpoints, read through `apply`."""
    programs = atomic_head_programs()
    for p in programs:
        kk, fixed = sem.kk_fixpoint_det(p), ref.fixpoints(p, OperatorKind.DMT_DET)
        assert kk in fixed and all(leq_i(kk, j) for j in fixed), p.text
        wf, stable = sem.wf_fixpoint_det(p), ref.stable(p, OperatorKind.DMT_DET)
        assert wf in stable and all(leq_i(wf, j) for j in stable), p.text
        assert leq_i(kk, wf), p.text
        ref.forget()
    assert {len(p.universe) for p in programs if classify(p).has_aggregates} == {1, 2, 3, 4, 5}


# The builders of the engine's bit planes and rows, and the bit-parallel kit
# they share (`lattice`: the column tiler, the atom tests, the closure and
# minimal-set pass and the row columns).
FORBIDDEN = {"pair_planes", "PairPlanes", "stable_rows", "member_row", "interval_tables", "digit_planes",
             "DigitPlanes", "minimal_bits", "_tile", "_within", "_meets", "_closure",
             "_minimal", "row_columns", "_row_runs", "_truth_runs"}


def forbidden_names(source: str) -> set[str]:
    """The forbidden names a source names anywhere, in code or in text."""
    return set(re.findall(r"\w+", source)) & FORBIDDEN


def test_the_referee_reads_no_plane_or_row():
    assert forbidden_names(Path(__file__).with_name("reference.py").read_text(encoding="utf-8")) == set()
    source = "from aftlab.operators import stable_rows\nops.pair_planes(k, p)\ngetattr(ops, 'member_row')"
    assert forbidden_names(source) == {"stable_rows", "pair_planes", "member_row"}
    source = "from aftlab.lattice import _within, _minimal\nminimal(closure(x)) within meets"
    assert forbidden_names(source) == {"_within", "_minimal"}
