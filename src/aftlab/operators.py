"""Consequence operators over the powerset lattice: the head-collecting base
operator, its hitting-set immediate-consequence operator, and the five
non-deterministic approximating operators (four-valued, four-valued with
trivially approximated aggregates, interval-intersection, ultimate, trivial)
plus the deterministic interval operator.

All operators are pure, and no value is kept. `apply` is the one reader of
a single pair, for every operator: it refuses what the operator is not
defined on, in a fixed order, and reads the pair on its masks. The
four-valued operators read both sides of a pair in one pass over the rules
(`_four_heads`), the others walk the interval as submasks over the base
entry of each set, the heads fired there and their atoms
(`program.Compiled.base`). The memoized operator functions read `apply`.
`values` lists an operator at every pair of its domain by pair number in
one pass: the four-valued ones from two ints over the rules per set, those
whose pos lies within it and those whose neg misses it, ANDed at each pair
(`_four_folds`), the others by folding the base entries up the gap of each
pair in one walk order per n, built once (`_walk`). Each of those others is
defined once, by its leaf and fold in one table (`_FOLDS`) that both read.
A head family is an int over the program's distinct heads, and each fold
becomes a value in one step that both share (`_from_fold`): a lower and an
upper row over the 2^n sets, bit m for the set with mask m, the hitting-set
rows of its head families (`program.Compiled.families`); only `apply` and
the functions that read it decode rows to sets. The sweeps read the operators from tables instead,
built on the program's masks and kept on its compiled form.
Every rule body is read once as two bit planes over the consistent pairs,
the pairs where its value has the lower bit and those where it has the
upper bit, and each operator's `PairPlanes` are built from them
(`interval_tables`, `pair_planes`): `ic` shares the planes of `ic-triv`, and
`dmt-det` those of `dmt`, on the programs of their class, which
`pair_planes` checks. The complete stable values of `ic` and `ic-triv`
range over the inconsistent pairs too; they read the same body readings
with x fixed, one row of one bit per set y for each x, which gives the
lower and the upper value alike (`member_row`, `stable_rows`).
"""

from __future__ import annotations

from enum import Enum
from functools import cache, reduce
from operator import or_
from typing import Callable, Sequence

from . import four, program as prog
from .lattice import (
    AftlabError,
    ApproxPair,
    AtomSet,
    AtomUniverse,
    DigitPlanes,
    InconsistentPairError,
    Lazy,
    NdPair,
    NdSet,
    _meets,
    _within,
    bit_indices,
    digit_planes,
    hitting_row,
    minimal_bits,
    row_columns,
    submasks,
)
from .program import Program, ProgramClassError


class OperatorKind(Enum):
    __hash__ = object.__hash__  # by identity, in C: `Enum.__hash__` runs in Python
    IC = "ic"
    DMT = "dmt"
    ULTIMATE = "ultimate"
    GZ = "gz"
    DMT_DET = "dmt-det"
    IC_TRIV = "ic-triv"


# The members as module names: `OperatorKind.GZ` takes `EnumType`'s slow
# attribute path on every read.
IC, DMT, ULTIMATE, GZ, DMT_DET, IC_TRIV = OperatorKind

# The four-valued operators, total on every pair. Their complete stable
# values range over the inconsistent pairs too, so they are not read from
# planes over the consistent pairs but from rows (`stable_rows`). The
# minimal planes of `ic-triv` read those values over the consistent pairs
# alone; on a plain program their pairs are the three-valued stable models
# (`semantics.three_valued_stable`).
FOUR_VALUED = (IC, IC_TRIV)


def consistent_only(kind: OperatorKind) -> bool:
    """Whether the operator is defined only on consistent pairs.

    The four-valued operators are total; the interval-based operators and the
    trivial operator are not extended to inconsistent pairs. Only their
    complete stable values are read from planes (`PairPlanes.minimal`); those
    of the four-valued ones are read from rows (`stable_rows`).
    """
    return kind not in FOUR_VALUED


def _heads(compiled: prog.Compiled, heads: int) -> frozenset[AtomSet]:
    """The head family with int `heads`: bit k stands for `compiled.heads[k]`."""
    return frozenset([h for k, h in enumerate(compiled.heads) if heads >> k & 1])


@cache
def hd(p: Program, x: AtomSet) -> frozenset[AtomSet]:
    """Heads of the rules whose bodies are true at the total interpretation x."""
    compiled = p.compile()
    return _heads(compiled, compiled.base[p.universe.mask(x)][0])


def hitting_sets(heads: frozenset[AtomSet]) -> NdSet:
    """All subsets of the union of `heads` meeting every member, not only
    the minimal ones; the empty family yields {{}}. The row of
    `lattice.hitting_row` over the union's atoms, decoded."""
    u = AtomUniverse.of(frozenset().union(*heads))
    return u.family(hitting_row(len(u), frozenset([u.mask(h) for h in heads])))


@cache
def ic(p: Program, x: AtomSet) -> NdSet:
    """Immediate consequences of x: hitting sets of the activated heads."""
    compiled, u = p.compile(), p.universe
    return u.family(compiled.families[compiled.base[u.mask(x)][0]])


def check_kind_applicable(kind: OperatorKind, compiled: prog.Compiled) -> None:
    """Raise when the program falls outside the operator's class, read from
    its compiled classification: `ic` needs an aggregate-free program and
    `dmt-det` atomic heads. Compiling, the caller's, decided the atom cap."""
    cls = compiled.classification
    if cls.has_aggregates and kind is IC:
        raise ProgramClassError("the four-valued operator needs an aggregate-free program")
    if not cls.atomic_heads and kind is DMT_DET:
        raise ProgramClassError("the deterministic operator needs atomic heads")


def _four_heads(p: Program, compiled: prog.Compiled, xm: int, ym: int) -> tuple[int, int]:
    """The heads, as ints over the program's distinct heads, of the rules
    whose body value at the pair with masks (xm, ym) has the lower bit, and
    those whose value has the upper bit (`program.CompiledRule.bits`), in one
    pass over the rules."""
    u, lower, upper = p.universe, 0, 0
    for r in compiled.rules:
        bits = r.bits(u, xm, ym)
        lower |= r.head_bit if bits & four.LOWER_BIT else 0
        upper |= r.head_bit if bits & four.UPPER_BIT else 0
    return lower, upper


@cache
def ic_lower_set(p: Program, i: ApproxPair) -> NdSet:
    """Lower component of the four-valued operator, total on arbitrary
    pairs: its lower heads need body value >=_t C, its upper ones >=_t U. It
    is `ic-triv` on the aggregate-free programs it is defined on."""
    return apply(IC, p, i).lower_set


@cache
def ic_upper_set(p: Program, i: ApproxPair) -> NdSet:
    return apply(IC, p, i).upper_set


@cache
def _fired_atoms(p: Program, z: AtomSet) -> AtomSet:
    return p.universe.unmask(p.compile().base[p.universe.mask(z)][1])


def _meet_join(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] & b[0], a[1] | b[1]


# The operators read from the base entries (heads, atoms) of the sets z of
# [x, y], each defined once: the leaf the entry of z gives, read with the
# family rows, and how two leaves fold. `apply` folds the leaves of one pair
# (`reduce`), `values` those of every pair (`_walk`); `_from_fold` makes the value:
# - `dmt`: the AND and the OR of the head ints, the heads activated
#   everywhere and somewhere in [x, y], then the hitting sets of each;
# - `dmt-det`: the AND and the OR of the atom masks, the atoms derived
#   everywhere and somewhere in [x, y], as one-set families (atomic heads);
# - `ultimate`: the union of `ic(z)` over [x, y], the OR of the hitting-set
#   rows of the head ints, on both sides;
# - `gz`: `ic(x)` at a total pair, by `dmt`'s path; None elsewhere, for
#   ({∅}, {A}), which reads no entry, so `apply` reads none there.
_FOLDS = {
    DMT: (lambda families, heads, atoms: (heads, heads), _meet_join),
    DMT_DET: (lambda families, heads, atoms: (atoms, atoms), _meet_join),
    ULTIMATE: (lambda families, heads, atoms: families[heads], or_),
    GZ: (lambda families, heads, atoms: (heads, heads), lambda a, b: None),
}


def _folding(kind: OperatorKind) -> tuple[Callable, Callable]:
    """The leaf and the fold of a kind that is not four-valued (`_FOLDS`),
    refusing an unknown kind: the one place that does."""
    found = _FOLDS.get(kind)
    if found is None:
        raise AftlabError(f"unknown operator kind {kind!r}")
    return found


def _from_fold(kind: OperatorKind, compiled: prog.Compiled, u: AtomUniverse, fold) -> tuple[int, int]:
    """An operator's value at a pair from what it reads there, as its lower
    and upper rows: the one step from a fold to a value that `apply` and
    `values` share. The rows of two head ints (`Compiled.families`), those of
    `_four_heads` for `ic` and `ic-triv` and the `_FOLDS` fold for `dmt` and
    for `gz` at a total pair; for `ultimate` the row `fold` on both sides;
    for `dmt-det` one set per side; ({∅}, {A}) for None."""
    if fold is None:
        return 1, 1 << (1 << len(u)) - 1
    if kind is DMT_DET:
        return 1 << fold[0], 1 << fold[1]
    if kind is ULTIMATE:
        return fold, fold
    return compiled.families[fold[0]], compiled.families[fold[1]]


def apply(kind: OperatorKind, p: Program, i: ApproxPair) -> NdPair:
    """The operator at the pair i, the deterministic one lifted to
    singletons: the one reader of a single pair, which `eval` and the
    memoized functions below go through. Nothing is kept but the compiled
    stores it reads (`program.Compiled`), so a refusal raises on every ask,
    in this order:

    1. a program outside the kind's class (`check_kind_applicable`);
    2. for the kinds of `consistent_only`, an inconsistent pair, tested on
       the frozensets;
    3. an atom outside the universe, refused when the pair's masks are
       resolved, for every operator;
    4. an unknown kind (`_folding`).

    The pair is then folded on its masks: `ic` and `ic-triv` by
    `_four_heads`, the others by walking the sets z of [x, y] as the
    submasks of y - x over the base entry of each, building no set per z,
    and folding their leaves (`_FOLDS`); `gz` reads no entry off the total
    pairs. `_from_fold` turns the fold into the value's rows, decoded here.
    `values` reads the operator at every pair at once."""
    compiled = p.compile()
    check_kind_applicable(kind, compiled)
    if consistent_only(kind) and not i.lower <= i.upper:
        raise InconsistentPairError("operator not defined on inconsistent pairs")
    u = p.universe
    xm, ym = u.mask(i.lower), u.mask(i.upper)
    if kind in FOUR_VALUED:
        fold = _four_heads(p, compiled, xm, ym)
    elif kind is GZ and xm != ym:
        fold = None
    else:
        leaf, join = _folding(kind)
        # Each distinct entry once: every join called here is idempotent (gz calls none).
        fold = reduce(join, [leaf(compiled.families, *e) for e in {compiled.base[xm | s] for s in submasks(ym & ~xm)}])
    lower, upper = _from_fold(kind, compiled, u, fold)
    return NdPair(u.family(lower), u.family(upper))


@cache
def dmt_det(p: Program, i: ApproxPair) -> ApproxPair:
    """Deterministic interval operator: intersection / union of derivable
    atoms over [x, y]. Needs atomic heads and a consistent pair."""
    (lower,), (upper,) = apply(DMT_DET, p, i)
    return ApproxPair(lower, upper)


@cache
def dmt_ndao(p: Program, i: ApproxPair) -> NdPair:
    """Interval operator at head level: heads activated everywhere in [x, y]
    below, somewhere in [x, y] above, then hitting sets on each side."""
    return apply(DMT, p, i)


@cache
def ultimate_ndao(p: Program, i: ApproxPair) -> NdPair:
    """Most precise approximating operator: union of the base operator over
    the interval, on both sides."""
    return apply(ULTIMATE, p, i)


@cache
def gz_ndao(p: Program, i: ApproxPair) -> NdPair:
    """Trivial operator: exact on total pairs, least precise elsewhere. Its
    total stable fixpoints are not the reduct answer sets; those of `ic-triv`
    are (README "Known defect")."""
    return apply(GZ, p, i)


@cache
def _walk(n: int) -> tuple[tuple[int, int, int], ...]:
    """The order in which `values` folds the pairs (x, y) with x < y, built
    once per n: the numbers x << n | y of (x, y), (x + a, y) and (x, y - a)
    for a the lowest atom of y - x, whose intervals cover its own. x runs
    down, and y up over the supersets of x, so both come first."""
    full, steps = (1 << n) - 1, []
    for xm in range(full, -1, -1):
        row, free, t = xm << n, full & ~xm, 0
        while t != free:
            t = (t - free) & free
            ym, a = xm | t, t & -t
            steps.append((row | ym, (xm | a) << n | ym, row | ym ^ a))
    return tuple(steps)


def _four_folds(p: Program, compiled: prog.Compiled) -> list[tuple[int, int]]:
    """`_four_heads` at each of the 4^n pairs, as the family rows of its two
    head ints, by pair number, read on ints over the rules (bit k for rule
    k). A body of atoms and negated atoms has the lower bit at (x, y) iff
    its pos lies within x and its neg misses y, and the upper bit iff its
    pos lies within y and its neg misses x. Per set m, `within[m]` marks
    those rules whose pos lies within m and `missing[m]` those whose neg
    misses m, each built with one doubling per atom, so the lower rules at
    (x, y) are `within[x] & missing[y]` and the upper ones
    `within[y] & missing[x]`, each side read from its own definition. Rules
    with aggregate literals or a general body are read pair by pair
    (`CompiledRule.bits`); each distinct rule int becomes a row once."""
    u, n, rules, families = p.universe, len(p.universe), compiled.rules, compiled.families
    within = [sum(1 << k for k, r in enumerate(rules) if r.formula is None and not r.aggs)]
    missing = within
    for bit in (1 << i for i in range(n)):
        lacks_pos = sum(1 << k for k, r in enumerate(rules) if not r.pos & bit)
        lacks_neg = sum(1 << k for k, r in enumerate(rules) if not r.neg & bit)
        within = [w & lacks_pos for w in within] + within
        missing = missing + [m & lacks_neg for m in missing]
    read = [(1 << k, r) for k, r in enumerate(rules) if r.formula is not None or r.aggs]
    rows = Lazy(lambda rule_int: families[reduce(or_, [rules[k].head_bit for k in bit_indices(rule_int)], 0)])
    out = []
    for xm in range(1 << n):
        within_x, missing_x = within[xm], missing[xm]
        for ym in range(1 << n):
            lower, upper = within_x & missing[ym], within[ym] & missing_x
            for rule_bit, r in read:
                bits = r.bits(u, xm, ym)
                lower |= rule_bit if bits & four.LOWER_BIT else 0
                upper |= rule_bit if bits & four.UPPER_BIT else 0
            out.append((rows[lower], rows[upper]))
    return out


def values(kind: OperatorKind, p: Program) -> list[tuple[int, int] | None]:
    """The operator at every pair of its domain in one pass, listed by pair
    number x << n | y for the masks (x, y), as its lower and upper rows over
    the 2^n sets: `apply` there, before the decode, refusing a program
    outside the operator's class or an unknown kind as it does. The
    four-valued operators cover the 4^n pairs, their rules read as ints per
    set (`_four_folds`); the others the 3^n consistent pairs, None at the
    rest: (z, z) takes the leaf (`_FOLDS`) of z's base entry, and the others
    in turn (`_walk`) the join of the folds of two pairs covering their
    interval. Each distinct fold becomes one value (`_from_fold`)."""
    compiled = p.compile()
    check_kind_applicable(kind, compiled)
    if kind in FOUR_VALUED:
        return _four_folds(p, compiled)
    leaf, join = _folding(kind)
    u, n, families = p.universe, len(p.universe), compiled.families
    made = Lazy(lambda fold: _from_fold(kind, compiled, u, fold))
    folds, out = [None] * (1 << 2 * n), [None] * (1 << 2 * n)
    # The total pair (z, z) has number z << n | z, z (2^n + 1).
    folds[:: (1 << n) + 1] = leaves = [leaf(families, *compiled.base[z]) for z in range(1 << n)]
    out[:: (1 << n) + 1] = [made[fold] for fold in leaves]
    for k, with_a, without_a in _walk(n):
        folds[k] = fold = join(folds[with_a], folds[without_a])
        out[k] = made[fold]
    return out


class PairPlanes:
    """An operator read at every consistent pair, as planes over the pair
    numbers (`lattice.DigitPlanes`, its `digits`): `lower` marks the pairs
    (x, y) with x in the operator's lower set, `upper` those with y in its
    upper set, `smyth` those where some member of the lower set lies within
    x, and `closed` those whose y is closed under the base operator, some
    member of ic(y) lying within y. Kept per program and distinct set of
    planes (`pair_planes`). The complete stable values of a consistent-only
    operator are read from its `minimal` planes, and so are the three-valued
    stable models of a plain program, from those of `ic-triv`
    (`semantics.three_valued_stable`)."""

    __slots__ = ("digits", "lower", "upper", "smyth", "closed", "_minimal")

    def __init__(self, digits: DigitPlanes, lower: int, upper: int, smyth: int, closed: int):
        self.digits, self.lower, self.upper, self.smyth, self.closed = digits, lower, upper, smyth, closed
        self._minimal: tuple[int, int] | None = None

    def minimal(self) -> tuple[int, int]:
        """The pairs (x, y) with x a minimal lower member among the subsets of
        y, and those with y a minimal upper member among the supersets of x:
        the complete lower stable value at y and the upper one at x."""
        if self._minimal is None:
            self._minimal = (self.digits.minimal_x(self.lower), self.digits.minimal_y(self.upper))
        return self._minimal


def _aggregate_planes(a: prog.CompiledAggregate, full: int, in_x: Sequence[int], in_y: Sequence[int]) -> tuple[int, int]:
    """The lower and upper planes of an aggregate literal under its trivial
    approximation (`program.CompiledAggregate.trivial`). The literal has the
    lower bit where some condition holds at x but not at y (is C), the upper
    bit where some holds at y but not at x (is U), and where neither is
    found takes its two-valued value at x, which depends only on the
    conditions that hold there. The pairs are split by those conditions, and
    the literal is read once per part, at the union of the conditions that
    hold in it, where exactly they hold. On a consistent pair no condition
    is C."""
    at_x_only, at_y_only, parts = 0, 0, [(full, 0)]
    for c, _ in a.entries:
        at_x, at_y = _within(c, in_x, full), _within(c, in_y, full)
        at_x_only |= at_x & ~at_y
        at_y_only |= at_y & ~at_x
        split = []
        for plane, atoms in parts:
            split += [(plane & at_x, atoms | c), (plane & ~at_x, atoms)]
        parts = [(plane, atoms) for plane, atoms in split if plane]
    exact = reduce(or_, [plane for plane, atoms in parts if a.holds(atoms)], 0) & ~(at_x_only | at_y_only)
    return exact | at_x_only, exact | at_y_only


def _formula_planes(f: four.Formula, atom: Callable[[str], tuple[int, int]], full: int) -> tuple[int, int]:
    """`four.eval_pair` on every consistent pair at once: the planes of the
    pairs at which the value of f has the lower bit and the upper bit, those
    of an atom given by `atom`. A constant has its bits everywhere; negation
    swaps the two planes and complements them, conjunction and disjunction
    AND and OR them."""
    if isinstance(f, four.Atom):
        return atom(f.name)
    if isinstance(f, four.Const):
        return full if f.value.value & four.LOWER_BIT else 0, full if f.value.value & four.UPPER_BIT else 0
    if isinstance(f, four.Not):
        lower, upper = _formula_planes(f.operand, atom, full)
        return full ^ upper, full ^ lower
    (ll, lu), (rl, ru) = _formula_planes(f.left, atom, full), _formula_planes(f.right, atom, full)
    return (ll & rl, lu & ru) if isinstance(f, four.And) else (ll | rl, lu | ru)


def _body_planes(
    u: AtomUniverse, r: prog.CompiledRule, full: int, in_x: Sequence[int], in_y: Sequence[int]
) -> tuple[int, int]:
    """The planes of the consistent pairs (x, y) at which the body of r has
    the lower bit and the upper bit, the two bits that `CompiledRule.bits`
    reads one pair at a time. An atom has the lower bit where it is in x
    (`in_x`) and the upper bit where it is in y (`in_y`); a conjunctive body
    is the AND of its literals."""
    if r.formula is not None:
        return _formula_planes(r.formula, lambda a: (in_x[u.index(a)], in_y[u.index(a)]), full)
    lower = _within(r.pos, in_x, full) & ~_meets(r.neg, in_y)
    upper = _within(r.pos, in_y, full) & ~_meets(r.neg, in_x)
    for a in r.aggs:
        agg_lower, agg_upper = _aggregate_planes(a, full, in_x, in_y)
        lower, upper = lower & agg_lower, upper & agg_upper
    return lower, upper


def _missed(heads: dict[int, int], inside: Sequence[int]) -> int:
    """The pairs at which a head is marked (`heads`, by head mask) that the
    set on one side misses (`inside[i]` marks atom i in it)."""
    out = 0
    for h, plane in heads.items():
        out |= plane & ~_meets(h, inside)
    return out


def _members(full: int, heads: dict[int, int], inside: Sequence[int], missed: int) -> int:
    """The pairs whose set on one side (`inside[i]` marks atom i in it) is a
    hitting set of the heads marked there: it misses none of them (`missed`,
    `_missed(heads, inside)`, passed in so that a caller that also reads it
    builds it once) and has no atom outside them."""
    out = missed
    for i, within in enumerate(inside):
        covered = 0
        for h, plane in heads.items():
            if h >> i & 1:
                covered |= plane
        out |= within & ~covered
    return full & ~out


def interval_tables(kind: OperatorKind, p: Program) -> PairPlanes:
    """The planes of an operator. Each rule body is read once as its two
    planes (`_body_planes`). A set w hits the heads marked at a pair iff it
    misses none of them and lies within their atoms; some hitting set lies
    within x, the Smyth test, iff x misses none of them. A body has both
    bits at a total pair (z, z), it is true, iff it holds at z, so the rules
    with both bits there have the heads of `hd(z)`: y is closed iff it
    misses none of those at (y, y). Per operator:

    - `ic-triv`: the heads of the rules with the lower bit mark its lower
      side and its Smyth test, those with the upper bit its upper side;
    - `dmt`: the AND and the OR of each head's total planes over each
      interval (`DigitPlanes.fold`) mark its lower and upper heads. A head is
      activated at z when any of its rules fires, so the AND runs per head,
      not per rule. These are also the planes of `dmt-det` (`pair_planes`):
      on atomic heads the one hitting set of the marked heads is the set of
      their atoms, so x is a member iff it has exactly those atoms;
    - `ultimate`: x is in its set at (x, y) iff x hits the heads fired at
      some z in [x, y]. The test is made at z = y (`above_x` copies the heads
      of each total pair to the pairs below it) and ORed over the subsets of
      y within the supersets of x (`below_y`); the upper side likewise, with
      x and y swapped;
    - `gz`: exact on total pairs, ({∅}, {A}) elsewhere.
    """
    u = p.universe
    digits = digit_planes(len(u))
    full, total, d0, d2 = digits.full, digits.total, digits.d0, digits.d2
    in_y = [full ^ d for d in d0]
    # Per head mask, the total pairs at which a rule with that head fires,
    # and for `ic-triv` alone, the pairs at which the body of one has the
    # lower bit and those at which it has the upper bit.
    fires: dict[int, int] = {}
    lower_heads: dict[int, int] = {}
    upper_heads: dict[int, int] = {}
    for r in p.compile().rules:
        h = r.head_mask
        body_lower, body_upper = _body_planes(u, r, full, d2, in_y)
        fires[h] = fires.get(h, 0) | body_lower & body_upper & total
        if kind is IC_TRIV:
            lower_heads[h] = lower_heads.get(h, 0) | body_lower
            upper_heads[h] = upper_heads.get(h, 0) | body_upper
    fires_missed = _missed(fires, d2)
    closed = full & ~digits.above_x(fires_missed)
    if kind is IC_TRIV:
        missed = _missed(lower_heads, d2)
        lower, smyth = _members(full, lower_heads, d2, missed), full & ~missed
        upper = _members(full, upper_heads, in_y, _missed(upper_heads, in_y))
    elif kind is DMT:
        # One side at a time: the folds of the lower side are dropped before
        # those of the upper side are built, which keeps the peak lower.
        meet = {h: digits.fold(plane, True) for h, plane in fires.items()}
        missed = _missed(meet, d2)
        lower, smyth = _members(full, meet, d2, missed), full & ~missed
        del meet
        join = {h: digits.fold(plane, False) for h, plane in fires.items()}
        upper = _members(full, join, in_y, _missed(join, in_y))
    elif kind is ULTIMATE:
        at_y = {h: digits.above_x(plane) for h, plane in fires.items()}
        at_x = {h: digits.below_y(plane) for h, plane in fires.items()}
        missed = _missed(at_y, d2)
        lower, smyth = digits.below_y(_members(full, at_y, d2, missed)), digits.below_y(full & ~missed)
        upper = digits.above_x(_members(full, at_x, in_y, _missed(at_x, in_y)))
    elif kind is GZ:
        # Off the total pairs, x = ∅ is the lower member and y = A the upper.
        exact, off, every = total & _members(full, fires, d2, fires_missed), full ^ total, (1 << len(u)) - 1
        lower, upper = exact | off & ~_meets(every, d2), exact | off & ~_meets(every, d0)
        smyth = off | closed & total
    else:
        raise AftlabError(f"operator {kind.value!r} has no pair planes of its own")
    return PairPlanes(digits, lower, upper, smyth, closed)


# Operators that read the planes of another: `ic` is `ic-triv` on the
# aggregate-free programs it is defined on, and on atomic heads `dmt` is
# `dmt-det` lifted to singletons. `pair_planes` refuses a program outside
# the operator's class before it maps the operator here.
_SHARED_PLANES = {IC: IC_TRIV, DMT_DET: DMT}


def pair_planes(kind: OperatorKind, p: Program) -> PairPlanes:
    """The planes of an operator on the program, built by the first sweep
    that asks (`interval_tables`) and then kept on its compiled form. `ic`
    reads the planes of `ic-triv` and `dmt-det` those of `dmt`, the same
    objects, on a program of the operator's class (`check_kind_applicable`)."""
    compiled = p.compile()
    check_kind_applicable(kind, compiled)
    kind = _SHARED_PLANES.get(kind, kind)
    kept = compiled.pair_planes
    planes = kept.get(kind)
    if planes is None:
        planes = kept[kind] = interval_tables(kind, p)
    return planes


def member_row(p: Program, fixed: int) -> int:
    """`ic-triv`, so also `ic`, with x fixed at the set with mask `fixed`, as
    a row over the 2^n sets w: bit w marks the sets w in its upper set at
    (fixed, w), which is its lower set at (w, fixed), since every body's two
    bits swap with x and y. Each body's upper plane is read by `_body_planes`
    on rows: an atom of y is the row of the sets containing it, one of x all
    ones or 0, so an aggregate's conditions at x split no row. A set is a
    member iff it hits the heads marked at its bit (`_members`)."""
    u = p.universe
    full, _, inside = row_columns(len(u))
    fixed_side = [full if fixed >> i & 1 else 0 for i in range(len(u))]
    heads: dict[int, int] = {}
    for r in p.compile().rules:
        heads[r.head_mask] = heads.get(r.head_mask, 0) | _body_planes(u, r, full, fixed_side, inside)[1]
    return _members(full, heads, inside, _missed(heads, inside))


def stable_rows(kind: OperatorKind, p: Program) -> Callable[[int], tuple[int, ...]]:
    """The complete stable value of `ic` or `ic-triv` at each set, lower
    and upper alike, as a function of its mask giving the minimal members
    of `member_row` in increasing order, on a program of the operator's
    class (`check_kind_applicable`). A row depends on the fixed set only
    through its key: the plain rules whose neg misses it (`live`, built with
    one doubling per atom) and the atoms of it that aggregate and formula
    bodies read. Each row is built once per program and key, and kept."""
    compiled, u = p.compile(), p.universe
    check_kind_applicable(kind, compiled)
    plain_negs = [r.neg for r in compiled.rules if r.formula is None and not r.aggs]
    read = 0
    for r in compiled.rules:
        if r.formula is not None:
            read |= u.mask(four.formula_atoms(r.formula))
        elif r.aggs:
            read |= reduce(or_, [c for a in r.aggs for c, _ in a.entries], r.neg)
    live = [(1 << len(plain_negs)) - 1]
    for i in range(len(u)):
        with_neg = sum(1 << k for k, neg in enumerate(plain_negs) if neg >> i & 1)
        live += [m & ~with_neg for m in live]
    kept = compiled.stable_rows

    def value(m: int) -> tuple[int, ...]:
        key = live[m], m & read
        found = kept.get(key)
        if found is None:
            found = kept[key] = tuple(minimal_bits(len(u), member_row(p, m)))
        return found

    return value

