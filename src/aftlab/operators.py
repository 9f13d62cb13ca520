"""Consequence operators over the powerset lattice: the head-collecting base
operator, its hitting-set immediate-consequence operator, and the five
non-deterministic approximating operators (four-valued, four-valued with
trivially approximated aggregates, interval-intersection, ultimate, trivial)
plus the deterministic interval operator.

All operators are pure. Each value `apply` gives is kept on the program's
compiled form per (operator, pair) (`Compiled.values`). A value not kept is
read on the pair's masks and probes none of the memos of the operator
functions, which stay for direct callers: the four-valued operators read
both sides of a pair in one pass over the rules (`_four_heads`), the others
walk the interval as submasks over the base entry of each set, the heads
fired there and their atoms, built once per program and set and kept on its
compiled form (`_base`, `_interval_value`). The hitting sets of each head
family are built once per program and kept there too (`_hits`). The sweeps
read the operators from tables instead, built on the program's masks and
kept on its compiled form.
Every rule body is read once as two bit planes over the consistent pairs,
the pairs where its value has the lower bit and those where it has the
upper bit, and each operator's `PairPlanes` are built from them
(`interval_tables`, `pair_planes`): `ic` shares the planes of `ic-triv`, and
`dmt-det` those of `dmt`, on the programs of their class, which
`pair_planes` checks. The complete stable values of `ic` and `ic-triv`
range over the inconsistent pairs too; they read the same body readings
with one side of the pair fixed, as rows of one bit per set of the other
side (`member_row`, `stable_rows`).
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
    NdPair,
    NdSet,
    _closure_steps,
    digit_planes,
    minimal_bits,
    submasks,
)
from .program import Program, ProgramClassError


class OperatorKind(Enum):
    # Members are singletons compared by identity, so they hash by identity
    # too: `Enum.__hash__` runs in Python on every (kind, pair) key `apply` reads.
    __hash__ = object.__hash__

    IC = "ic"
    DMT = "dmt"
    ULTIMATE = "ultimate"
    GZ = "gz"
    DMT_DET = "dmt-det"
    IC_TRIV = "ic-triv"


# The four-valued operators, total on every pair. Their complete stable
# values range over the inconsistent pairs too, so they are not read from
# planes over the consistent pairs but from rows (`stable_rows`). The
# minimal planes of `ic-triv` read those values over the consistent pairs
# alone; on a plain program their pairs are the three-valued stable models
# (`semantics.three_valued_stable`).
FOUR_VALUED = (OperatorKind.IC, OperatorKind.IC_TRIV)


def consistent_only(kind: OperatorKind) -> bool:
    """Whether the operator is defined only on consistent pairs.

    The four-valued operators are total; the interval-based operators and the
    trivial operator are not extended to inconsistent pairs. Only their
    complete stable values are read from planes (`PairPlanes.minimal`); those
    of the four-valued ones are read from rows (`stable_rows`).
    """
    return kind not in FOUR_VALUED


def _base(p: Program, xm: int) -> tuple[frozenset[AtomSet], int]:
    """The base entry of the set with mask xm: the heads of the rules whose
    bodies hold there and the mask of their atoms, built by one pass over the
    rules on the first ask and then kept on the program's compiled form."""
    compiled = p.compile()
    found = compiled.base.get(xm)
    if found is None:
        u, heads, atoms = p.universe, set(), 0
        for r in compiled.rules:
            if r.holds(u, xm):
                heads.add(r.head)
                atoms |= r.head_mask
        found = compiled.base[xm] = (frozenset(heads), atoms)
    return found


@cache
def hd(p: Program, x: AtomSet) -> frozenset[AtomSet]:
    """Heads of the rules whose bodies are true at the total interpretation x."""
    return _base(p, p.universe.mask(x))[0]


def hitting_sets(heads: frozenset[AtomSet]) -> NdSet:
    """All subsets of the union of `heads` meeting every member.

    The empty family yields {{}} (the single vacuous hitting set); sets are
    not restricted to minimal ones. Candidates are the submasks of the union,
    with atom k of the union as bit k; only members become frozensets.
    """
    heads = frozenset(heads)
    if frozenset() in heads:
        raise AftlabError("empty head set has no hitting sets")
    bit = {a: 1 << k for k, a in enumerate(frozenset().union(*heads))}
    masks = [sum([bit[a] for a in delta]) for delta in heads]
    out = []
    for m in range(1 << len(bit)):
        for h in masks:
            if not m & h:
                break
        else:
            out.append(frozenset([a for a, b in bit.items() if m & b]))
    return frozenset(out)


def _hits(p: Program, heads: frozenset[AtomSet]) -> NdSet:
    """`hitting_sets(heads)`, built on the first ask for the family and then
    kept on the program's compiled form: an operator's value depends on the
    pair only through its head family, and a program has few of them."""
    kept = p.compile().families
    found = kept.get(heads)
    if found is None:
        found = kept[heads] = hitting_sets(heads)
    return found


@cache
def ic(p: Program, x: AtomSet) -> NdSet:
    """Immediate consequences of x: hitting sets of the activated heads."""
    return _hits(p, hd(p, x))


def check_kind_applicable(kind: OperatorKind, p: Program) -> None:
    """Raise when the program falls outside the operator's class, read from
    its compiled classification: `ic` needs an aggregate-free program and
    `dmt-det` atomic heads. Compiling decides the atom cap first."""
    cls = p.compile().classification
    if kind is OperatorKind.IC and cls.has_aggregates:
        raise ProgramClassError("the four-valued operator needs an aggregate-free program")
    if kind is OperatorKind.DMT_DET and not cls.atomic_heads:
        raise ProgramClassError("the deterministic operator needs atomic heads")


def _require_consistent(i: ApproxPair) -> None:
    if not i.is_consistent:
        raise InconsistentPairError("operator not defined on inconsistent pairs")


def _four_heads(p: Program, i: ApproxPair) -> tuple[frozenset[AtomSet], frozenset[AtomSet]]:
    """The heads of the rules whose body value at i = (x, y) has the lower
    bit (is >=_t C), and those whose value has the upper bit (is >=_t U), in
    one pass over the rules. The lower bit is the body's truth at x with
    negation read at y, the upper bit its truth at y with negation read at x.
    Aggregate literals take their bits from their trivial approximation
    (`program.CompiledAggregate.trivial`); general bodies from
    `four.eval_pair`, which reads the pair of atom sets."""
    u = p.universe
    xm, ym = u.mask(i.lower), u.mask(i.upper)
    lower, upper = set(), set()
    for r in p.compile().rules:
        if r.formula is not None:
            bits = four.eval_pair(u, i, r.formula).value
        else:
            bits = (not r.pos & ~xm and not r.neg & ym) << 1 | (not r.pos & ~ym and not r.neg & xm)
            for a in r.aggs:
                if not bits:
                    break
                bits &= a.trivial(xm, ym)
        if bits & four.LOWER_BIT:
            lower.add(r.head)
        if bits & four.UPPER_BIT:
            upper.add(r.head)
    return frozenset(lower), frozenset(upper)


@cache
def ic_lower_set(p: Program, i: ApproxPair) -> NdSet:
    """Lower component of the four-valued operator; total on arbitrary pairs."""
    return ic_ndao(p, i).lower_set


@cache
def ic_upper_set(p: Program, i: ApproxPair) -> NdSet:
    return ic_ndao(p, i).upper_set


def ic_ndao(p: Program, i: ApproxPair) -> NdPair:
    """Four-valued approximating operator: lower heads need body value >=_t C,
    upper heads >=_t U. It is `ic_triv_ndao` on the aggregate-free programs
    it is defined on."""
    check_kind_applicable(OperatorKind.IC, p)
    return ic_triv_ndao(p, i)


def ic_triv_ndao(p: Program, i: ApproxPair) -> NdPair:
    """Four-valued operator with each aggregate literal approximated trivially
    (`program.CompiledAggregate.trivial`); equal to `ic_ndao` on aggregate-free
    programs. Its total stable fixpoints are the reduct answer sets
    (`semantics.gz_answer_sets`); README "Aggregates and GZ answer sets"."""
    lower, upper = _four_heads(p, i)
    return NdPair(_hits(p, lower), _hits(p, upper))


@cache
def _fired_atoms(p: Program, z: AtomSet) -> AtomSet:
    return p.universe.unmask(_base(p, p.universe.mask(z))[1])


# The operators read from the base entries of the sets of an interval
# (`_interval_value`).
INTERVAL = (OperatorKind.DMT, OperatorKind.ULTIMATE, OperatorKind.GZ, OperatorKind.DMT_DET)


def _interval_value(kind: OperatorKind, p: Program, i: ApproxPair) -> NdPair:
    """An operator of `INTERVAL` at the pair i = (x, y), `dmt-det` lifted to
    singletons, read on masks: the pair's masks are resolved once, which
    refuses an atom outside the universe, and the sets z of [x, y] are
    walked as the submasks of y - x, reading the base entry of each
    (`_base`) and building no set per z. Per operator:

    - `dmt`: the hitting sets of the meet and of the join of the entries'
      heads, the heads activated everywhere and somewhere in [x, y];
    - `ultimate`: the union of `ic(z)` over [x, y], the hitting sets of each
      distinct head family, on both sides;
    - `gz`: `ic(x)` on a total pair, ({∅}, {A}) elsewhere;
    - `dmt-det`: the AND and the OR of the entries' atom masks, the atoms
      derived everywhere and somewhere in [x, y], on atomic heads.
    """
    check_kind_applicable(kind, p)
    _require_consistent(i)
    u = p.universe
    xm, ym = u.mask(i.lower), u.mask(i.upper)
    if kind is OperatorKind.GZ and xm != ym:
        return NdPair(frozenset((u.unmask(0),)), frozenset((u.unmask((1 << len(u)) - 1),)))
    base = p.compile().base
    entries = [base.get(z) or _base(p, z) for z in [xm | s for s in submasks(ym & ~xm)]]
    if kind is OperatorKind.GZ:
        consequences = _hits(p, entries[0][0])
        return NdPair(consequences, consequences)
    if kind is OperatorKind.DMT:
        heads = [h for h, _ in entries]
        return NdPair(_hits(p, frozenset.intersection(*heads)), _hits(p, frozenset().union(*heads)))
    if kind is OperatorKind.ULTIMATE:
        hits = [_hits(p, h) for h in {h for h, _ in entries}]
        gathered = hits[0] if len(hits) == 1 else frozenset().union(*hits)
        return NdPair(gathered, gathered)
    lower, upper = (1 << len(u)) - 1, 0
    for _, atoms in entries:
        lower, upper = lower & atoms, upper | atoms
    return NdPair(frozenset((u.unmask(lower),)), frozenset((u.unmask(upper),)))


@cache
def dmt_det(p: Program, i: ApproxPair) -> ApproxPair:
    """Deterministic interval operator: intersection / union of derivable
    atoms over [x, y]. Needs atomic heads and a consistent pair."""
    (lower,), (upper,) = _interval_value(OperatorKind.DMT_DET, p, i)
    return ApproxPair(lower, upper)


@cache
def dmt_ndao(p: Program, i: ApproxPair) -> NdPair:
    """Interval operator at head level: heads activated everywhere in [x, y]
    below, somewhere in [x, y] above, then hitting sets on each side."""
    return _interval_value(OperatorKind.DMT, p, i)


@cache
def ultimate_ndao(p: Program, i: ApproxPair) -> NdPair:
    """Most precise approximating operator: union of the base operator over
    the interval, on both sides."""
    return _interval_value(OperatorKind.ULTIMATE, p, i)


@cache
def gz_ndao(p: Program, i: ApproxPair) -> NdPair:
    """Trivial operator: exact on total pairs, least precise elsewhere. Its
    total stable fixpoints are not the reduct answer sets; those of
    `ic_triv_ndao` are (README "Known defect")."""
    return _interval_value(OperatorKind.GZ, p, i)


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


def _within(m: int, inside: Sequence[int], full: int) -> int:
    """The pairs whose set on one side (`inside[i]` marks atom i in it)
    contains every atom of the mask m."""
    while m:
        full &= inside[(m & -m).bit_length() - 1]
        m &= m - 1
    return full


def _meets(m: int, inside: Sequence[int]) -> int:
    """The pairs whose set on one side has some atom of the mask m."""
    out = 0
    while m:
        out |= inside[(m & -m).bit_length() - 1]
        m &= m - 1
    return out


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
    for c in a.conditions:
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
    the lower bit and the upper bit, the two bits that `_four_heads` reads
    one pair at a time. An atom has the lower bit where it is in x (`in_x`) and
    the upper bit where it is in y (`in_y`); a conjunctive body is the AND of
    its literals."""
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


def _members(full: int, heads: dict[int, int], inside: Sequence[int]) -> int:
    """The pairs whose set on one side (`inside[i]` marks atom i in it) is a
    hitting set of the heads marked there: it misses none of them and has no
    atom outside them."""
    out = _missed(heads, inside)
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
        if kind is OperatorKind.IC_TRIV:
            lower_heads[h] = lower_heads.get(h, 0) | body_lower
            upper_heads[h] = upper_heads.get(h, 0) | body_upper
    closed = full & ~digits.above_x(_missed(fires, d2))
    if kind is OperatorKind.IC_TRIV:
        lower, upper = _members(full, lower_heads, d2), _members(full, upper_heads, in_y)
        smyth = full & ~_missed(lower_heads, d2)
    elif kind is OperatorKind.DMT:
        # One side at a time: the folds of the lower side are dropped before
        # those of the upper side are built, which keeps the peak lower.
        meet = {h: digits.fold(plane, True) for h, plane in fires.items()}
        lower, smyth = _members(full, meet, d2), full & ~_missed(meet, d2)
        del meet
        join = {h: digits.fold(plane, False) for h, plane in fires.items()}
        upper = _members(full, join, in_y)
    elif kind is OperatorKind.ULTIMATE:
        at_y = {h: digits.above_x(plane) for h, plane in fires.items()}
        at_x = {h: digits.below_y(plane) for h, plane in fires.items()}
        lower = digits.below_y(_members(full, at_y, d2))
        upper = digits.above_x(_members(full, at_x, in_y))
        smyth = digits.below_y(full & ~_missed(at_y, d2))
    elif kind is OperatorKind.GZ:
        # Off the total pairs, x = ∅ is the lower member and y = A the upper.
        exact, off, every = total & _members(full, fires, d2), full ^ total, (1 << len(u)) - 1
        lower, upper = exact | off & ~_meets(every, d2), exact | off & ~_meets(every, d0)
        smyth = off | closed & total
    else:
        raise AftlabError(f"operator {kind.value!r} has no pair planes of its own")
    return PairPlanes(digits, lower, upper, smyth, closed)


# Operators that read the planes of another: `ic` is `ic-triv` on the
# aggregate-free programs it is defined on, and on atomic heads `dmt` is
# `dmt-det` lifted to singletons. `pair_planes` refuses a program outside
# the operator's class before it maps the operator here.
_SHARED_PLANES = {OperatorKind.IC: OperatorKind.IC_TRIV, OperatorKind.DMT_DET: OperatorKind.DMT}


def pair_planes(kind: OperatorKind, p: Program) -> PairPlanes:
    """The planes of an operator on the program, built by the first sweep
    that asks (`interval_tables`) and then kept on its compiled form. `ic`
    reads the planes of `ic-triv` and `dmt-det` those of `dmt`, the same
    objects, on a program of the operator's class (`check_kind_applicable`)."""
    check_kind_applicable(kind, p)
    kind = _SHARED_PLANES.get(kind, kind)
    kept = p.compile().pair_planes
    planes = kept.get(kind)
    if planes is None:
        planes = kept[kind] = interval_tables(kind, p)
    return planes


def member_row(p: Program, fixed: int, upper: bool = False) -> int:
    """`ic-triv`, so also `ic`, with one side of the pair fixed at the set
    with mask `fixed`, as a row over the 2^n sets of the other side: bit m
    marks the sets m in its lower set at (m, fixed), or (upper) in its upper
    set at (fixed, m).
    Each rule body is read by `_body_planes` on rows: an atom of the free
    side is the row of the sets containing it, one of the fixed side all
    ones or 0. A set is a member iff it hits the heads marked at its bit
    (`_members`)."""
    u = p.universe
    full = (1 << (1 << len(u))) - 1
    inside = [full ^ without for _, without, _ in _closure_steps(len(u))]
    fixed_side = [full if fixed >> i & 1 else 0 for i in range(len(u))]
    in_x, in_y = (fixed_side, inside) if upper else (inside, fixed_side)
    heads: dict[int, int] = {}
    for r in p.compile().rules:
        lower_row, upper_row = _body_planes(u, r, full, in_x, in_y)
        heads[r.head_mask] = heads.get(r.head_mask, 0) | (upper_row if upper else lower_row)
    return _members(full, heads, inside)


def stable_rows(p: Program) -> tuple[Callable[[int], tuple[int, ...]], Callable[[int], tuple[int, ...]]]:
    """The complete stable values of `ic` and `ic-triv`, the lower one at
    each set y and the upper one at each set x, as functions of its mask
    giving the minimal members of `member_row` in increasing order. A row
    depends on the fixed set only through its key: the plain rules whose neg
    misses it (`live`, built with one doubling per atom) and the atoms of it
    that aggregate and formula bodies read. Each row is built once per
    program, side and key, and kept on its compiled form."""
    compiled, u = p.compile(), p.universe
    plain_negs = [r.neg for r in compiled.rules if r.formula is None and not r.aggs]
    read = 0
    for r in compiled.rules:
        if r.formula is not None:
            read |= u.mask(four.formula_atoms(r.formula))
        elif r.aggs:
            read |= reduce(or_, [c for a in r.aggs for c in a.conditions], r.neg)
    live = [(1 << len(plain_negs)) - 1]
    for i in range(len(u)):
        with_neg = sum(1 << k for k, neg in enumerate(plain_negs) if neg >> i & 1)
        live += [m & ~with_neg for m in live]
    kept = compiled.stable_rows

    def value(m: int, upper: bool) -> tuple[int, ...]:
        key = (upper, live[m], m & read)
        found = kept.get(key)
        if found is None:
            found = kept[key] = tuple(minimal_bits(len(u), member_row(p, m, upper)))
        return found

    return (lambda ym: value(ym, False)), (lambda xm: value(xm, True))


def apply(kind: OperatorKind, p: Program, i: ApproxPair) -> NdPair:
    """Uniform dispatch; the deterministic operator is lifted to singletons.
    Each value is kept on the program's compiled form per (kind, pair), a
    refusal is not. A kept value is found with no call into Python: the form
    is read from the program's dict, and the key hashes in C. A value not
    kept is read on masks, `ic_triv_ndao` for the four-valued operators and
    `_interval_value` for the others, probing none of the memos."""
    values = (p.__dict__.get("_compiled") or p.compile()).values
    found = values.get((kind, i))
    if found is not None:
        return found
    if kind is OperatorKind.IC:
        found = ic_ndao(p, i)
    elif kind is OperatorKind.IC_TRIV:
        found = ic_triv_ndao(p, i)
    elif kind in INTERVAL:
        found = _interval_value(kind, p, i)
    else:
        raise AftlabError(f"unknown operator kind {kind!r}")
    values[kind, i] = found
    return found
