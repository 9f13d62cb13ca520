"""Executable law suite: the operator and semantics invariants, run over the
golden corpus plus seeded random programs.

Each law reports the number of checked cases and, on violation, a failure
message with the smallest failing program appended as a reproducer (programs
are visited in increasing size order).

The laws read the operators through one `OperatorTable` per program, which
`run_laws` hands each law in place of `apply_fn` and which is callable like
it. With no `apply_fn`, the table reads the reference operators: a law that
reads every pair of a kind has it from one `operators.values` call, and a law
that reads some pairs asks `operators.apply` for each on its first read. A
given `apply_fn`, a mutant say, is asked pair by pair, once per (kind, pair).
Either way the laws read no plane and no row of the sweeps they referee. A
law given another `apply_fn` builds a table over it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from . import corpus, four, operators as ops, program as prog, render, semantics as sem
from .generator import GeneratorConfig, generate_program
from .lattice import AftlabError, ApproxPair, Lazy, NdPair, masks_above_i, precision_code, smyth_leq, submasks
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


class OperatorTable:
    """One program's operators by pair number, x << n | y for the masks (x, y):
    `values[kind][number]`, asked of `apply_fn` (`ops.apply` if none) on the
    first read, or read with every pair of the kind's domain by `every`, and
    `codes[value]`, the `PrecisionCode` of each distinct value. `sets[m]` is
    the set with mask m; `consistent` numbers the consistent pairs in order."""

    def __init__(self, p: Program, apply_fn: ApplyFn | None = None):
        u, n = p.universe, len(p.universe)
        self.program, self.n, low = p, n, (1 << n) - 1
        self.apply_fn = ask = apply_fn or ops.apply
        self.reference, self.whole = apply_fn is None, set()
        self.sets = sets = [u.unmask(m) for m in range(1 << n)]
        self.consistent = [xm << n | ym for xm, ym in u.consistent_masks()]
        self.values = Lazy(lambda kind: Lazy(lambda m: ask(kind, p, ApproxPair(sets[m >> n], sets[m & low]))))
        self.codes = Lazy(lambda value: precision_code(u, value))

    def every(self, kind: OperatorKind) -> dict[int, NdPair]:
        """`values[kind]` for a law that reads every pair of the kind's
        domain: on the reference operators, filled by one `ops.values` call."""
        values = self.values[kind]
        if self.reference and kind not in self.whole:
            values.update(ops.values(kind, self.program))
            self.whole.add(kind)
        return values

    def __call__(self, kind: OperatorKind, p: Program, i: ApproxPair) -> NdPair:
        if p is not self.program or not i.lower | i.upper <= self.sets[-1]:
            return self.apply_fn(kind, p, i)
        return self.values[kind][p.universe.mask(i.lower) << self.n | p.universe.mask(i.upper)]


def _table(p: Program, apply_fn: ApplyFn | None) -> OperatorTable:
    """`run_laws`' table of p, or a new one over `apply_fn`."""
    return apply_fn if isinstance(apply_fn, OperatorTable) and apply_fn.program is p else OperatorTable(p, apply_fn)


def _law_monotonicity(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    """Each pair is checked against every pair above it in the information
    order, 3^|y - x| cases at (x, y) and 5^n per operator. The members of
    those pairs are ORed once per operator, one pass per atom (the zeta
    transform of `lattice.DigitPlanes`): a pair with atom a in y - x takes
    the ORs of (x + a, y) and (x, y - a). Only a failing pair is walked again
    pair by pair (`masks_above_i`), for the case count and the message."""
    kinds = _ndao_kinds(p) + ([OperatorKind.DMT_DET] if p.compile().classification.atomic_heads else [])
    t, u = _table(p, apply_fn), p.universe
    keys = list(u.consistent_masks())
    steps = [
        [(key, (key[0] | bit, key[1]), (key[0], key[1] & ~bit)) for key in keys if key[1] & ~key[0] & bit]
        for bit in (1 << a for a in range(len(u)))
    ]
    cases = 0
    for kind in kinds:
        values = t.every(kind)
        codes = {key: t.codes[values[number]] for key, number in zip(keys, t.consistent)}
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
                    f"{render.fmt_pair(u, u.pair(*key1))} <=_i {render.fmt_pair(u, u.pair(*key2))}"
                )
    return cases, None


def _law_exactness(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    """Each operator at a total pair (x, x) is ic(x), the hitting sets of the
    heads fired at x, read from the compiled stores (`operators._base`,
    `operators._hits`)."""
    compiled, t = p.compile(), _table(p, apply_fn)
    cases = 0
    for kind in _ndao_kinds(p):
        values = t.values[kind]
        for m, x in enumerate(t.sets):
            cases += 1
            value = values[m << t.n | m]
            expected = ops._hits(compiled, ops._base(p, compiled, m)[0])
            if value.lower_set != expected or value.upper_set != expected:
                return cases, f"{kind.value} not exact at {render.fmt_set(p.universe, x)}"
    return cases, None


def _law_precision_chain(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    t = _table(p, apply_fn)
    gz_of, dmt_of, ult_of = (t.every(k) for k in (OperatorKind.GZ, OperatorKind.DMT, OperatorKind.ULTIMATE))
    cases = 0
    for key, i in zip(t.consistent, _pairs(p)):
        cases += 1
        gz, dmt, ult = t.codes[gz_of[key]], t.codes[dmt_of[key]], t.codes[ult_of[key]]
        if dmt.members & ~gz.allowed:
            return cases, f"gz not below dmt at {render.fmt_pair(p.universe, i)}"
        if ult.members & ~dmt.allowed:
            return cases, f"dmt not below ultimate at {render.fmt_pair(p.universe, i)}"
    return cases, None


def _law_ultimate_max(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    t = _table(p, apply_fn)
    ult_of = t.every(OperatorKind.ULTIMATE)
    others = [(kind, t.every(kind)) for kind in _ndao_kinds(p) if kind is not OperatorKind.ULTIMATE]
    cases = 0
    for key, i in zip(t.consistent, _pairs(p)):
        ult = t.codes[ult_of[key]].members
        for kind, values in others:
            cases += 1
            if ult & ~t.codes[values[key]].allowed:
                return cases, f"{kind.value} not below ultimate at {render.fmt_pair(p.universe, i)}"
    return cases, None


def _law_symmetry(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    if p.compile().classification.has_aggregates:
        return 0, None
    t, u = _table(p, apply_fn), p.universe
    ic, n = t.every(OperatorKind.IC), t.n
    cases = 0
    for xm, x in enumerate(t.sets):
        for ym, y in enumerate(t.sets):
            cases += 1
            if ic[xm << n | ym].lower_set != ic[ym << n | xm].upper_set:
                return cases, (
                    f"lower at ({render.fmt_set(u, x)}, {render.fmt_set(u, y)}) "
                    f"differs from upper at the swapped pair"
                )
    return cases, None


def _law_upwards_coherence(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    t = _table(p, apply_fn)
    size = 1 << t.n
    cases = 0
    for kind in _ndao_kinds(p):
        values = t.every(kind)
        for key, i in zip(t.consistent, _pairs(p)):
            cases += 1
            value = values[key]
            if not value.lower_set or not value.upper_set:
                return cases, f"{kind.value} returned an empty candidate set at {render.fmt_pair(p.universe, i)}"
            c = t.codes[value]
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
    t = _table(p, apply_fn)
    dmt, det = t.every(OperatorKind.DMT), t.every(OperatorKind.DMT_DET)
    cases = 0
    for key, i in zip(t.consistent, _pairs(p)):
        cases += 1
        # On atomic heads each set of `dmt` is the one set of its heads' atoms.
        if dmt[key] != det[key]:
            return cases, f"head-level interval operator does not collapse at {render.fmt_pair(p.universe, i)}"
    cases += 1
    if sem.stable_fixpoints(OperatorKind.DMT, p) != sem.det_stable_fixpoints(p):
        return cases, "interval-operator stable fixpoints differ from the deterministic stable pairs"
    return cases, None


def _law_prefixpoint_minimal(p: Program, apply_fn: ApplyFn) -> tuple[int, str | None]:
    t = _table(p, apply_fn)
    n, sets, cases = t.n, t.sets, 0
    for kind in _ndao_kinds(p):
        values = t.every(kind)
        for ym, y in enumerate(sets):
            cases += 1
            fixed, pre = [], []
            for xm in submasks(ym) if ops.consistent_only(kind) else range(1 << n):
                x, lower_set = sets[xm], values[xm << n | ym].lower_set
                if x in lower_set:
                    fixed.append(x)
                if smyth_leq(lower_set, frozenset((x,))):
                    pre.append(x)
            if sem.minimal_sets(fixed) != sem.minimal_sets(pre):
                return cases, (
                    f"{kind.value}: minimal fixpoints and minimal pre-fixpoints differ "
                    f"at upper bound {render.fmt_set(p.universe, y)}"
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
    apply_fn: ApplyFn | None = None,
    max_atoms: int | None = None,
) -> list[LawOutcome]:
    """Run the named laws (all by default), each once in the order first
    named, over the programs, each compiled under the atom cap `max_atoms`
    (`lattice.atom_cap`) and read through one `OperatorTable` of its own:
    over the reference operators, or over `apply_fn` if given."""
    ordered = sorted(programs, key=lambda p: (len(p.rules), len(p.universe), p.text))
    selected = list(dict.fromkeys(names)) if names is not None else list(LAW_NAMES)
    unknown = [n for n in selected if n not in LAWS]
    if unknown:
        raise UnknownLawError(f"unknown law name(s): {', '.join(unknown)}")
    for p in ordered:
        p.compile(max_atoms)
    cases, failures = dict.fromkeys(selected, 0), dict.fromkeys(selected)
    for p in ordered:
        table = OperatorTable(p, apply_fn)
        for name in [name for name in selected if failures[name] is None]:
            checked, detail = LAWS[name](p, table)
            cases[name] += checked
            if detail is not None:
                failures[name] = f"{detail}\nreproducer:\n{p.text}"
    return [LawOutcome(name, failures[name] is None, cases[name], failures[name]) for name in selected]
