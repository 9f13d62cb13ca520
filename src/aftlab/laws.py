"""Executable law suite: the operator and semantics invariants, run over the
golden corpus plus seeded random programs.

Each law reports the number of checked cases and, on violation, a failure
message with the smallest failing program appended as a reproducer (programs
are visited in increasing size order).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from . import corpus, four, operators as ops, program as prog, render, semantics as sem
from .generator import GeneratorConfig, generate_program
from .lattice import AftlabError, ApproxPair, NdPair, PrecisionCode, masks_above_i, precision_code, smyth_leq
from .operators import OperatorKind
from .program import Program
from .record import record

ApplyFn = Callable[[OperatorKind, Program, ApproxPair], "ops.NdPair"]


class UnknownLawError(prog.ProgramClassError):
    """A law name the suite does not have; the CLI reports it as a usage error."""


@record
class LawOutcome:
    name: str
    ok: bool
    cases: int
    failure: str | None


def _ndao_kinds(p: Program) -> list[OperatorKind]:
    kinds = [] if p.compile().classification.has_aggregates else [OperatorKind.IC]
    kinds += [OperatorKind.DMT, OperatorKind.ULTIMATE, OperatorKind.GZ]
    return kinds


def _pairs(p: Program) -> tuple[ApproxPair, ...]:
    return p.universe.consistent_tuple


def _precision_codes(p: Program) -> Callable[[NdPair], PrecisionCode]:
    """`lattice.precision_code` over p's universe, built once per distinct value."""
    codes: dict[NdPair, PrecisionCode] = {}
    return lambda value: codes.get(value) or codes.setdefault(value, precision_code(p.universe, value))


def _law_monotonicity(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    """Each pair is checked against every pair above it in the information
    order, 3^|y - x| cases at (x, y) and 5^n per operator. The members of
    those pairs are ORed once per operator, one pass per atom (the zeta
    transform of `lattice.DigitPlanes`): a pair with atom a in y - x takes
    the ORs of (x + a, y) and (x, y - a). Only a failing pair is walked again
    pair by pair (`masks_above_i`), for the case count and the message."""
    kinds = _ndao_kinds(p) + ([OperatorKind.DMT_DET] if p.compile().classification.atomic_heads else [])
    u = p.universe
    code = _precision_codes(p)
    keys = list(u.consistent_masks())
    index = dict(zip(keys, _pairs(p)))
    steps = [
        [(key, (key[0] | bit, key[1]), (key[0], key[1] & ~bit)) for key in keys if key[1] & ~key[0] & bit]
        for bit in (1 << a for a in range(len(u)))
    ]
    cases = 0
    for kind in kinds:
        codes = {key: code(apply_fn(kind, p, i)) for key, i in index.items()}
        above = {key: c.members for key, c in codes.items()}
        for step in steps:
            for key, with_a, without_a in step:
                above[key] |= above[with_a] | above[without_a]
        key1 = next((key for key in keys if above[key] & ~codes[key].allowed), None)
        if key1 is None:
            cases += 5 ** len(u)
            continue
        cases += sum(3 ** (ym & ~xm).bit_count() for xm, ym in keys[: keys.index(key1)])
        outside = ~codes[key1].allowed
        for key2 in masks_above_i(*key1):
            cases += 1
            if codes[key2].members & outside:
                return cases, (
                    f"{kind.value} not precision-monotone: "
                    f"{render.fmt_pair(u, index[key1])} <=_i {render.fmt_pair(u, index[key2])}"
                )
    return cases, None


def _law_exactness(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    cases = 0
    for kind in _ndao_kinds(p):
        for x in p.universe.subsets():
            cases += 1
            value = apply_fn(kind, p, ApproxPair(x, x))
            expected = ops.ic(p, x)
            if value.lower_set != expected or value.upper_set != expected:
                return cases, f"{kind.value} not exact at {render.fmt_set(p.universe, x)}"
    return cases, None


def _law_precision_chain(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    code = _precision_codes(p)
    cases = 0
    for i in _pairs(p):
        cases += 1
        gz = code(apply_fn(OperatorKind.GZ, p, i))
        dmt = code(apply_fn(OperatorKind.DMT, p, i))
        ult = code(apply_fn(OperatorKind.ULTIMATE, p, i))
        if dmt.members & ~gz.allowed:
            return cases, f"gz not below dmt at {render.fmt_pair(p.universe, i)}"
        if ult.members & ~dmt.allowed:
            return cases, f"dmt not below ultimate at {render.fmt_pair(p.universe, i)}"
    return cases, None


def _law_ultimate_max(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    kinds = [k for k in _ndao_kinds(p) if k is not OperatorKind.ULTIMATE]
    code = _precision_codes(p)
    cases = 0
    for i in _pairs(p):
        ult = code(apply_fn(OperatorKind.ULTIMATE, p, i)).members
        for kind in kinds:
            cases += 1
            if ult & ~code(apply_fn(kind, p, i)).allowed:
                return cases, f"{kind.value} not below ultimate at {render.fmt_pair(p.universe, i)}"
    return cases, None


def _law_symmetry(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    if p.compile().classification.has_aggregates:
        return 0, None
    ic, u = OperatorKind.IC, p.universe
    cases = 0
    subsets = list(u.subsets())
    for x in subsets:
        for y in subsets:
            cases += 1
            if apply_fn(ic, p, ApproxPair(x, y)).lower_set != apply_fn(ic, p, ApproxPair(y, x)).upper_set:
                return cases, (
                    f"lower at ({render.fmt_set(u, x)}, {render.fmt_set(u, y)}) "
                    f"differs from upper at the swapped pair"
                )
    return cases, None


def _law_upwards_coherence(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    code = _precision_codes(p)
    size = 1 << len(p.universe)
    cases = 0
    for kind in _ndao_kinds(p):
        for i in _pairs(p):
            cases += 1
            value = apply_fn(kind, p, i)
            if not value.lower_set or not value.upper_set:
                return cases, f"{kind.value} returned an empty candidate set at {render.fmt_pair(p.universe, i)}"
            c = code(value)
            # smyth_leq(lower set, upper set): every upper member is Smyth-above the lower set.
            if c.members >> size & ~c.allowed:
                return cases, f"{kind.value} not upwards coherent at {render.fmt_pair(p.universe, i)}"
    return cases, None


def _law_ht_equality(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    if not p.compile().classification.plain:
        return 0, None
    algebraic = sem.ht_pairs(OperatorKind.IC, p)
    if algebraic != sem.ht_models_program(p):
        return 1, "algebraic HT pairs differ from rule-level HT models"
    # The definition, independent of the compiled masks: HT satisfaction of
    # each rule as a formula (`four.HTRule`). Its classical half reads y
    # alone, so it is read once per rule and y.
    u, rules = p.universe, [four.HTRule.of(prog.body_formula(r), r.head) for r in p.rules]
    classical = {y: all(r.there(u, y) for r in rules) for y in u.subsets()}
    if algebraic != [i for i in _pairs(p) if classical[i.upper] and all(r.here(u, i) for r in rules)]:
        return 1, "algebraic HT pairs differ from HT satisfaction of the rules"
    return 1, None


def _law_total_stable_ht(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    cases = 0
    for kind in _ndao_kinds(p):
        cases += 1
        ht_totals = {i for i in sem.min_t(sem.ht_pairs(kind, p)) if i.is_total}
        stable_totals = {i for i in sem.stable_fixpoints(kind, p) if i.is_total}
        if ht_totals != stable_totals:
            return cases, f"{kind.value}: total truth-minimal HT pairs differ from total stable fixpoints"
    return cases, None


def _law_seq_nonempty(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    cases = 0
    for kind in _ndao_kinds(p):
        cases += 1
        models = sem.seq(kind, p)
        if not models:
            return cases, f"{kind.value}: no semi-equilibrium model"
        if any(i.is_total for i in models):
            stable_totals = {i for i in sem.stable_fixpoints(kind, p) if i.is_total}
            if set(models) != stable_totals:
                return cases, f"{kind.value}: semi-equilibrium models differ from total stable fixpoints"
    return cases, None


def _law_stable_t_minimal(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    cases = 0
    for kind in _ndao_kinds(p):
        cases += 1
        minimal = set(sem.min_t(sem.fixpoints(kind, p)))
        for i in sem.stable_fixpoints(kind, p):
            if i not in minimal:
                return cases, f"{kind.value}: stable fixpoint {render.fmt_pair(p.universe, i)} not truth-minimal"
    return cases, None


def _law_gz_answer_sets(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    cls = p.compile().classification
    if cls.shape == prog.SHAPE_GENERAL:
        return 0, None
    cases = 1
    non_total = [i for i in sem.min_t(sem.fixpoints(OperatorKind.GZ, p)) if not i.is_total]
    if non_total:
        return cases, (
            f"truth-minimal trivial-operator fixpoint {render.fmt_pair(p.universe, non_total[0])} is not total"
        )
    if not cls.has_negated_aggregates:
        cases += 1
        # Both come in increasing mask order.
        stable = sem.total_stable_fixpoints(OperatorKind.GZ, p)
        answer_sets = sem.gz_answer_sets(p)
        if stable != answer_sets:
            return cases, (
                "trivial-operator total stable fixpoints "
                f"{[render.fmt_set(p.universe, x) for x in stable]} differ from reduct answer sets "
                f"{[render.fmt_set(p.universe, x) for x in answer_sets]}"
            )
    return cases, None


def _law_dmt_det_collapse(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    if not p.compile().classification.atomic_heads:
        return 0, None
    cases = 0
    for i in _pairs(p):
        cases += 1
        # On atomic heads each set of `dmt` is the one set of its heads' atoms.
        if apply_fn(OperatorKind.DMT, p, i) != apply_fn(OperatorKind.DMT_DET, p, i):
            return cases, f"head-level interval operator does not collapse at {render.fmt_pair(p.universe, i)}"
    cases += 1
    if sem.stable_fixpoints(OperatorKind.DMT, p) != sem.det_stable_fixpoints(p):
        return cases, "interval-operator stable fixpoints differ from the deterministic stable pairs"
    return cases, None


def _law_prefixpoint_minimal(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    cases = 0
    u = p.universe
    for kind in _ndao_kinds(p):
        for y in u.subsets():
            cases += 1
            fixed, pre = [], []
            for x in u.interval(frozenset(), y) if ops.consistent_only(kind) else u.subsets():
                lower_set = apply_fn(kind, p, ApproxPair(x, y)).lower_set
                if x in lower_set:
                    fixed.append(x)
                if smyth_leq(lower_set, frozenset((x,))):
                    pre.append(x)
            if sem.minimal_sets(fixed) != sem.minimal_sets(pre):
                return cases, (
                    f"{kind.value}: minimal fixpoints and minimal pre-fixpoints differ "
                    f"at upper bound {render.fmt_set(u, y)}"
                )
    return cases, None


LAWS: dict[str, Callable[[Program, ApplyFn], tuple[int, str | None]]] = {
    "monotonicity": _law_monotonicity,
    "exactness": _law_exactness,
    "precision-chain": _law_precision_chain,
    "ultimate-max": _law_ultimate_max,
    "symmetry": _law_symmetry,
    "upwards-coherence": _law_upwards_coherence,
    "ht-equality": _law_ht_equality,
    "total-stable-ht": _law_total_stable_ht,
    "seq-nonempty": _law_seq_nonempty,
    "stable-t-minimal": _law_stable_t_minimal,
    "gz-answer-sets": _law_gz_answer_sets,
    "dmt-det-collapse": _law_dmt_det_collapse,
    "prefixpoint-minimal": _law_prefixpoint_minimal,
}

LAW_NAMES = tuple(LAWS)


def suite_programs(count: int = 200, atoms: int = 3, rules: int = 4, seed: int = 0) -> list[Program]:
    """Golden corpus plus `count` seeded random programs of 1 to `rules` rules."""
    if rules < 1:
        raise AftlabError(f"programs need at least 1 rule, got {rules}")
    programs = corpus.programs()
    for offset in range(count):
        cfg = GeneratorConfig(
            atoms=atoms,
            rules=1 + (seed + offset) % rules,
            negation_probability=0.4,
            aggregate_probability=0.25 if offset % 2 else 0.0,
            disjunction_width=2,
            seed=seed + offset,
        )
        programs.append(generate_program(cfg))
    return programs


def run_laws(
    programs: Iterable[Program],
    names: Sequence[str] | None = None,
    apply_fn: ApplyFn = ops.apply,
    max_atoms: int | None = None,
) -> list[LawOutcome]:
    """Run the named laws (all by default), each once in the order first
    named, over the programs, each compiled under the atom cap `max_atoms`
    (`lattice.atom_cap`)."""
    ordered = sorted(programs, key=lambda p: (len(p.rules), len(p.universe), p.text))
    selected = list(dict.fromkeys(names)) if names is not None else list(LAW_NAMES)
    unknown = [n for n in selected if n not in LAWS]
    if unknown:
        raise UnknownLawError(f"unknown law name(s): {', '.join(unknown)}")
    for p in ordered:
        p.compile(max_atoms)
    outcomes = []
    for name in selected:
        law = LAWS[name]
        cases = 0
        failure = None
        for p in ordered:
            checked, detail = law(p, apply_fn)
            cases += checked
            if detail is not None:
                failure = f"{detail}\nreproducer:\n{p.text}"
                break
        outcomes.append(LawOutcome(name, failure is None, cases, failure))
    return outcomes
