"""Executable law suite: the operator and semantics invariants, run over the
golden corpus plus seeded random programs.

Each law reports the number of checked cases and, on violation, a failure
message with the smallest failing program appended as a reproducer (programs
are visited in increasing size order).

Every law takes the program and its `OperatorTable`, which `run_laws`
builds once per program and hands each law. With no `apply_fn`, the table
reads the reference operators, each kind as the list of one
`operators.values` call on the first read, by pair number, None at a pair
outside its domain, not a refusal. A given `apply_fn`, a mutant say, is
asked pair by pair, once per (kind, pair), and its value encoded. Either
way a value is two rows of one bit per set, the laws test and compare bits,
and the table reads no plane and no row of the sweeps the laws referee. A
pair is named by its number in the table, the key x << n | y that the
semantics' key readers return too, so the semantics laws compare sorted
key lists; an `ApproxPair` is built only for a failure message.
"""

from __future__ import annotations

from functools import cache
from itertools import groupby
from typing import Callable, Iterable, Sequence

from . import corpus, operators as ops, program as prog, render, semantics as sem
from .generator import GeneratorConfig, generate_program
from .lattice import AftlabError, ApproxPair, Lazy, masks_above_i, minimal_bits, precision_code, submasks, up_closure
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
    kinds = [] if p.compile().classification.has_aggregates else [ops.IC]
    kinds += [ops.DMT, ops.ULTIMATE, ops.GZ]
    return kinds


@cache
def _consistent(n: int) -> tuple[int, ...]:
    """The numbers of the consistent pairs over n atoms, in order, once per n."""
    return tuple(x << n | y for x, y in masks_above_i(0, (1 << n) - 1))


@cache
def _monotone_steps(n: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Per atom a, the steps of `_law_monotonicity`, built once per n: the
    numbers k of the consistent pairs (x, y) with a in y - x, with those of
    (x + a, y), k | a << n, and (x, y - a), k ^ a."""
    consistent, atoms = _consistent(n), [1 << i for i in range(n)]
    return tuple(tuple((k, k | a << n, k ^ a) for k in consistent if k & ~(k >> n) & a) for a in atoms)


class OperatorTable:
    """One program's operators by pair number, x << n | y for the masks (x, y),
    each value as its lower and upper rows over the 2^n sets (bit m for the
    set with mask m): `values[kind]`, the list of one `ops.values` call,
    None off the kind's domain (not a refusal), or with an `apply_fn`, a
    dict asked of it at each pair on its first read and encoded, so a law
    sizes a list by n; and `codes[value]`, the `PrecisionCode` of each
    distinct value. `sets[m]` is the set with mask m; `consistent` numbers
    the consistent pairs in order, one tuple per n (`_consistent`), and
    `pair(number)` is the pair itself."""

    def __init__(self, p: Program, apply_fn: ApplyFn | None = None):
        u, n = p.universe, len(p.universe)
        self.n, self.low = n, (low := (1 << n) - 1)
        self.sets = sets = [u.unmask(m) for m in range(1 << n)]
        self.consistent = _consistent(n)
        # The fills read locals, not the table, so a table is freed without a cycle collection.
        rows = lambda value: (u.row(value.lower_set), u.row(value.upper_set))
        per_pair = lambda kind: Lazy(lambda k: rows(apply_fn(kind, p, ApproxPair(sets[k >> n], sets[k & low]))))
        self.values = Lazy(per_pair if apply_fn else lambda kind: ops.values(kind, p))
        self.codes = Lazy(lambda value: precision_code(n, *value))

    def pair(self, number: int) -> ApproxPair:
        return ApproxPair(self.sets[number >> self.n], self.sets[number & self.low])

    def totals(self, numbers: Iterable[int]) -> list[int]:
        """The numbers of the total pairs among `numbers`, in their order."""
        return [k for k in numbers if k >> self.n == k & self.low]


def _law_monotonicity(p: Program, t: OperatorTable) -> tuple[int, str | None]:
    """Each pair is checked against every pair above it in the information
    order, 3^|y - x| cases at (x, y) and 5^n per operator. The members of
    those pairs are ORed once per operator, one pass per atom (the zeta
    transform of `lattice.DigitPlanes`): a pair with atom a in y - x takes
    the ORs of (x + a, y) and (x, y - a) (`_monotone_steps`). Only a failing
    pair is walked again (`masks_above_i`), for the case count and message."""
    kinds = _ndao_kinds(p) + ([ops.DMT_DET] if p.compile().classification.atomic_heads else [])
    u, n, consistent, size = p.universe, t.n, t.consistent, 1 << 2 * t.n
    cases = 0
    for kind in kinds:
        values, codes, above = t.values[kind], [None] * size, [0] * size
        for k in consistent:
            codes[k] = code = t.codes[values[k]]
            above[k] = code.members
        for step in _monotone_steps(n):
            for k, with_a, without_a in step:
                above[k] |= above[with_a] | above[without_a]
        k1 = next((k for k in consistent if above[k] & ~codes[k].allowed), None)
        if k1 is None:
            cases += 5**n
            continue
        cases += sum(3 ** (k & t.low & ~(k >> n)).bit_count() for k in consistent[: consistent.index(k1)])
        outside = ~codes[k1].allowed
        for xm, ym in masks_above_i(k1 >> n, k1 & t.low):
            k2 = xm << n | ym
            cases += 1
            if codes[k2].members & outside:
                return cases, (
                    f"{kind.value} not precision-monotone: "
                    f"{render.fmt_pair(u, t.pair(k1))} <=_i {render.fmt_pair(u, t.pair(k2))}"
                )
    return cases, None


def _law_exactness(p: Program, t: OperatorTable) -> tuple[int, str | None]:
    """Each operator at a total pair (x, x) is ic(x), the hitting sets of the
    heads fired at x, read from the compiled stores (`program.Compiled`)."""
    compiled, cases = p.compile(), 0
    for kind in _ndao_kinds(p):
        values = t.values[kind]
        for m, x in enumerate(t.sets):
            cases += 1
            expected = compiled.families[compiled.base[m][0]]
            if values[m << t.n | m] != (expected, expected):
                return cases, f"{kind.value} not exact at {render.fmt_set(p.universe, x)}"
    return cases, None


def _law_precision_chain(p: Program, t: OperatorTable) -> tuple[int, str | None]:
    gz_of, dmt_of, ult_of = (t.values[k] for k in (ops.GZ, ops.DMT, ops.ULTIMATE))
    for cases, k in enumerate(t.consistent, 1):
        gz, dmt, ult = t.codes[gz_of[k]], t.codes[dmt_of[k]], t.codes[ult_of[k]]
        if dmt.members & ~gz.allowed:
            return cases, f"gz not below dmt at {render.fmt_pair(p.universe, t.pair(k))}"
        if ult.members & ~dmt.allowed:
            return cases, f"dmt not below ultimate at {render.fmt_pair(p.universe, t.pair(k))}"
    return len(t.consistent), None


def _law_ultimate_max(p: Program, t: OperatorTable) -> tuple[int, str | None]:
    ult_of = t.values[ops.ULTIMATE]
    others = [(kind, t.values[kind]) for kind in _ndao_kinds(p) if kind is not ops.ULTIMATE]
    cases = 0
    for k in t.consistent:
        ult = t.codes[ult_of[k]].members
        for kind, values in others:
            cases += 1
            if ult & ~t.codes[values[k]].allowed:
                return cases, f"{kind.value} not below ultimate at {render.fmt_pair(p.universe, t.pair(k))}"
    return cases, None


def _law_symmetry(p: Program, t: OperatorTable) -> tuple[int, str | None]:
    if p.compile().classification.has_aggregates:
        return 0, None
    u, ic, n = p.universe, t.values[ops.IC], t.n
    cases = 0
    for xm, x in enumerate(t.sets):
        for ym, y in enumerate(t.sets):
            cases += 1
            if ic[xm << n | ym][0] != ic[ym << n | xm][1]:
                return cases, (
                    f"lower at ({render.fmt_set(u, x)}, {render.fmt_set(u, y)}) "
                    f"differs from upper at the swapped pair"
                )
    return cases, None


def _law_upwards_coherence(p: Program, t: OperatorTable) -> tuple[int, str | None]:
    u, size = p.universe, 1 << t.n
    cases = 0
    for kind in _ndao_kinds(p):
        values = t.values[kind]
        for k in t.consistent:
            cases += 1
            value = values[k]
            if value[0] == 0 or value[1] == 0:
                return cases, f"{kind.value} returned an empty candidate set at {render.fmt_pair(u, t.pair(k))}"
            c = t.codes[value]
            # smyth_leq(lower set, upper set): every upper member is Smyth-above the lower set.
            if c.members >> size & ~c.allowed:
                return cases, f"{kind.value} not upwards coherent at {render.fmt_pair(u, t.pair(k))}"
    return cases, None


def _law_ht_equality(p: Program, t: OperatorTable) -> tuple[int, str | None]:
    if not p.compile().classification.plain:
        return 0, None
    # The HT models are read from the rules as formulas, not from the planes.
    if sem._ht_keys(ops.IC, p, False) != sem._ht_model_keys(p):
        return 1, "algebraic HT pairs differ from HT satisfaction of the rules"
    return 1, None


def _law_total_stable_ht(p: Program, t: OperatorTable) -> tuple[int, str | None]:
    """The total truth-minimal HT pairs are the total stable fixpoints. The
    truth-minimal HT pairs are read off the `minimal_t` plane, as `seq`
    reads them (`semantics._ht_keys`), and the stable fixpoints from the
    operator's `minimal` planes or rows, which read no `minimal_t`."""
    cases = 0
    for kind in _ndao_kinds(p):
        cases += 1
        if t.totals(sem._ht_keys(kind, p, True)) != t.totals(sem._stable_keys(kind, p)):
            return cases, f"{kind.value}: total truth-minimal HT pairs differ from total stable fixpoints"
    return cases, None


def _law_seq_nonempty(p: Program, t: OperatorTable) -> tuple[int, str | None]:
    cases = 0
    for kind in _ndao_kinds(p):
        cases += 1
        models = sem._seq_keys(kind, p)
        if not models:
            return cases, f"{kind.value}: no semi-equilibrium model"
        if t.totals(models) and models != t.totals(sem._stable_keys(kind, p)):
            return cases, f"{kind.value}: semi-equilibrium models differ from total stable fixpoints"
    return cases, None


def _law_stable_t_minimal(p: Program, t: OperatorTable) -> tuple[int, str | None]:
    cases = 0
    for kind in _ndao_kinds(p):
        cases += 1
        minimal = set(sem._fixpoint_keys(kind, p, True))
        for k in sem._stable_keys(kind, p):
            if k not in minimal:
                return cases, f"{kind.value}: stable fixpoint {render.fmt_pair(p.universe, t.pair(k))} not truth-minimal"
    return cases, None


def _law_gz_answer_sets(p: Program, t: OperatorTable) -> tuple[int, str | None]:
    cls = p.compile().classification
    if cls.shape == prog.SHAPE_GENERAL:
        return 0, None
    cases = 1
    non_total = [k for k in sem._fixpoint_keys(ops.GZ, p, True) if k >> t.n != k & t.low]
    if non_total:
        return cases, (
            f"truth-minimal trivial-operator fixpoint {render.fmt_pair(p.universe, t.pair(non_total[0]))} is not total"
        )
    if not cls.has_negated_aggregates:
        cases += 1
        # Both come in increasing mask order.
        stable = sem.total_stable_fixpoints(ops.GZ, p)
        answer_sets = sem.gz_answer_sets(p)
        if stable != answer_sets:
            return cases, (
                "trivial-operator total stable fixpoints "
                f"{[render.fmt_set(p.universe, x) for x in stable]} differ from reduct answer sets "
                f"{[render.fmt_set(p.universe, x) for x in answer_sets]}"
            )
    return cases, None


def _law_dmt_det_collapse(p: Program, t: OperatorTable) -> tuple[int, str | None]:
    """On atomic heads `dmt` is `dmt-det` lifted to singletons at every
    consistent pair, and the stable pairs of `dmt-det` as the table reads it
    are the deterministic stable pairs: x minimal among its lower members
    within y, and y among its upper members around x. Each side's members
    are collected as a row, bit m for the set with mask m, and the masks of
    the minimal ones read off it (`lattice.minimal_bits`)."""
    if not p.compile().classification.atomic_heads:
        return 0, None
    dmt, det = t.values[ops.DMT], t.values[ops.DMT_DET]
    for cases, k in enumerate(t.consistent, 1):
        # On atomic heads each set of `dmt` is the one set of its heads' atoms.
        if dmt[k] != det[k]:
            return cases, f"head-level interval operator does not collapse at {render.fmt_pair(p.universe, t.pair(k))}"
    n, masks = t.n, range(1 << t.n)
    lower = [frozenset(minimal_bits(n, sum([det[x << n | y][0] & 1 << x for x in submasks(y)]))) for y in masks]
    upper = [frozenset(minimal_bits(n, sum([det[x << n | y][1] & 1 << y for y in masks if not x & ~y]))) for x in masks]
    stable = [k for k in t.consistent if k >> n in lower[k & t.low] and k & t.low in upper[k >> n]]
    cases = len(t.consistent) + 1
    if stable != sem._stable_keys(ops.DMT_DET, p):
        return cases, "interval-operator stable fixpoints differ from the deterministic stable pairs"
    return cases, None


def _law_prefixpoint_minimal(p: Program, t: OperatorTable) -> tuple[int, str | None]:
    """At each upper bound y, the minimal x with x a member of the lower set
    at (x, y) are the minimal x with the lower set Smyth-below {x}. The x
    passing each test at y are collected as a row, bit m for the set with
    mask m: x is a member iff bit x of the lower row is set, and the lower
    set is Smyth-below {x} iff bit x of the row's up-closure is set
    (`lattice.up_closure`), taken once per distinct row, for every kind and
    y at once, since operator values share their rows. Two rows have the same
    minimal sets iff they have the same up-closure."""
    n, cases = t.n, 0
    closed = Lazy(lambda row: up_closure(n, row))
    for kind in _ndao_kinds(p):
        values = t.values[kind]
        for ym in range(1 << n):
            cases += 1
            fixed = pre = 0
            for xm in submasks(ym) if ops.consistent_only(kind) else range(1 << n):
                row = values[xm << n | ym][0]
                fixed |= row & 1 << xm
                pre |= closed[row] & 1 << xm
            if fixed != pre and up_closure(n, fixed) != up_closure(n, pre):
                return cases, (
                    f"{kind.value}: minimal fixpoints and minimal pre-fixpoints differ "
                    f"at upper bound {render.fmt_set(p.universe, t.sets[ym])}"
                )
    return cases, None


LAWS: dict[str, Callable[[Program, OperatorTable], tuple[int, str | None]]] = {
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
    over the reference operators, or over `apply_fn` if given. They are
    visited by rules, atoms and text, printed only to order a tie."""
    size, ordered = (lambda p: (len(p.rules), len(p.universe))), []
    for _, tied in groupby(sorted(programs, key=size), key=size):
        ordered += sorted(tied, key=lambda p: p.text) if len(tied := list(tied)) > 1 else tied
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
