"""Consequence operators over the powerset lattice: the head-collecting base
operator, its hitting-set immediate-consequence operator, and the five
non-deterministic approximating operators (four-valued, four-valued with
trivially approximated aggregates, interval-intersection, ultimate, trivial)
plus the deterministic interval operator.

All operators are pure; applications are memoized per (operator, program,
pair). The sweeps read the operators from tables instead, built on the
program's masks and kept on its compiled form: its one `RuleTables`, and for
each interval-based operator its `PairPlanes`, bit planes with one bit per
consistent pair (`interval_tables`, `pair_planes`), which `dmt-det` shares
with `dmt`. The four-valued sweeps of a program that is not plain test the
fired heads (`contains`, `smyth_below`).
"""

from __future__ import annotations

from enum import Enum
from functools import cache, reduce
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

from . import four, program as prog
from .four import Truth
from .lattice import (
    AftlabError,
    ApproxPair,
    AtomSet,
    AtomUniverse,
    DigitPlanes,
    InconsistentPairError,
    NdPair,
    NdSet,
    digit_planes,
    minimal_masks,
)
from .program import Program, ProgramClassError


class OperatorKind(Enum):
    IC = "ic"
    DMT = "dmt"
    ULTIMATE = "ultimate"
    GZ = "gz"
    DMT_DET = "dmt-det"
    IC_TRIV = "ic-triv"


# The four-valued operators. Their sweeps read the program's `RuleTables`
# when it is plain, and otherwise test membership on the fired heads
# (`contains`, `smyth_below`).
FOUR_VALUED = (OperatorKind.IC, OperatorKind.IC_TRIV)


def consistent_only(kind: OperatorKind) -> bool:
    """Whether the operator is defined only on consistent pairs.

    The four-valued operators are total; the interval-based operators and the
    trivial operator are not extended to inconsistent pairs.
    """
    return kind not in FOUR_VALUED


@cache
def hd(p: Program, x: AtomSet) -> frozenset[AtomSet]:
    """Heads of the rules whose bodies are true at the total interpretation x."""
    u = p.universe
    xm = u.mask(x)
    return frozenset(r.head for r in p.compile().rules if r.holds(u, xm))


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


@cache
def ic(p: Program, x: AtomSet) -> NdSet:
    """Immediate consequences of x: hitting sets of the activated heads."""
    return hitting_sets(hd(p, x))


def _require_aggregate_free(p: Program) -> None:
    if p.compile().classification.has_aggregates:
        raise ProgramClassError("the four-valued operator needs an aggregate-free program")


def _require_atomic_heads(p: Program) -> None:
    if any(len(r.head) > 1 for r in p.rules):
        raise ProgramClassError("the deterministic operator needs atomic heads")


def _require_consistent(i: ApproxPair) -> None:
    if not i.is_consistent:
        raise InconsistentPairError("operator not defined on inconsistent pairs")


def _fired(p: Program, xm: int, ym: int, bit: int) -> Iterator[prog.CompiledRule]:
    """The rules whose body value at the pair of masks (xm, ym) has `bit` set,
    `four.LOWER_BIT` or `four.UPPER_BIT`. The lower bit is the body's truth at
    x with negation read at y, the upper bit its truth at y with negation read
    at x. Aggregate literals take their bits from their trivial approximation
    (`program.CompiledAggregate.trivial`); general bodies from
    `four.eval_pair`, which reads the pair of atom sets."""
    here, there = (ym, xm) if bit == four.UPPER_BIT else (xm, ym)
    for r in p.compile().rules:
        if r.formula is None:
            if r.pos & ~here or r.neg & there:
                continue
            if not r.aggs or all(a.trivial(xm, ym) & bit for a in r.aggs):
                yield r
        elif four.eval_pair(p.universe, p.universe.pair(xm, ym), r.formula).value & bit:
            yield r


def _heads_at_least(p: Program, i: ApproxPair, threshold: Truth) -> frozenset[AtomSet]:
    """Heads of the rules whose body value at i = (x, y) is >=_t threshold,
    which is C (the lower bit alone) or U (the upper bit alone)."""
    xm, ym = p.universe.pair_key(i)
    return frozenset(r.head for r in _fired(p, xm, ym, threshold.value))


def contains(p: Program, xm: int, ym: int, m: int, upper: bool = False) -> bool:
    """Whether the set with mask m is in the lower (or upper) set of `ic` and
    `ic-triv` at the pair of masks (xm, ym), without building the family: a
    hitting set of the fired heads lies within their union and meets each."""
    union = 0
    for r in _fired(p, xm, ym, four.UPPER_BIT if upper else four.LOWER_BIT):
        if not m & r.head_mask:
            return False
        union |= r.head_mask
    return not m & ~union


def smyth_below(p: Program, xm: int, ym: int, m: int) -> bool:
    """Whether the lower set of `ic` and `ic-triv` at (xm, ym) is Smyth-below
    {m}, that is some member lies within m: m meets every fired lower head
    (its intersection with their union is then a member)."""
    return all(m & r.head_mask for r in _fired(p, xm, ym, four.LOWER_BIT))


@cache
def ic_lower_set(p: Program, i: ApproxPair) -> NdSet:
    """Lower component of the four-valued operator; total on arbitrary pairs."""
    _require_aggregate_free(p)
    return hitting_sets(_heads_at_least(p, i, Truth.C))


@cache
def ic_upper_set(p: Program, i: ApproxPair) -> NdSet:
    _require_aggregate_free(p)
    return hitting_sets(_heads_at_least(p, i, Truth.U))


def ic_ndao(p: Program, i: ApproxPair) -> NdPair:
    """Four-valued approximating operator: lower heads need body value >=_t C,
    upper heads >=_t U."""
    return NdPair(ic_lower_set(p, i), ic_upper_set(p, i))


@cache
def ic_triv_ndao(p: Program, i: ApproxPair) -> NdPair:
    """Four-valued operator with each aggregate literal approximated trivially
    (`program.CompiledAggregate.trivial`); equal to `ic_ndao` on aggregate-free
    programs. Its total stable fixpoints are the reduct answer sets
    (`semantics.gz_answer_sets`); README "Aggregates and GZ answer sets"."""
    return NdPair(hitting_sets(_heads_at_least(p, i, Truth.C)), hitting_sets(_heads_at_least(p, i, Truth.U)))


@cache
def _fired_atoms(p: Program, z: AtomSet) -> AtomSet:
    return frozenset().union(*hd(p, z)) if hd(p, z) else frozenset()


def det_lower(p: Program, w: AtomSet, y: AtomSet) -> AtomSet:
    """Atoms derivable at every interpretation of [w, y]; the empty interval
    (w not below y) yields the full universe, keeping the map monotone."""
    if not w <= y:
        return p.universe.full()
    out = p.universe.full()
    for z in p.universe.interval(w, y):
        out &= _fired_atoms(p, z)
    return out


def det_upper(p: Program, x: AtomSet, z: AtomSet) -> AtomSet:
    """Atoms derivable somewhere in [x, z]; only defined for x <= z."""
    if not x <= z:
        raise InconsistentPairError("upper interval operator needs x <= z")
    out: AtomSet = frozenset()
    for w in p.universe.interval(x, z):
        out |= _fired_atoms(p, w)
    return out


@cache
def dmt_det(p: Program, i: ApproxPair) -> ApproxPair:
    """Deterministic interval operator: intersection / union of derivable
    atoms over [x, y]. Needs atomic heads and a consistent pair."""
    _require_atomic_heads(p)
    _require_consistent(i)
    return ApproxPair(det_lower(p, i.lower, i.upper), det_upper(p, i.lower, i.upper))


@cache
def dmt_ndao(p: Program, i: ApproxPair) -> NdPair:
    """Interval operator at head level: heads activated everywhere in [x, y]
    below, somewhere in [x, y] above, then hitting sets on each side."""
    _require_consistent(i)
    lower_heads: frozenset[AtomSet] | None = None
    upper_heads: frozenset[AtomSet] = frozenset()
    for z in p.universe.interval(i.lower, i.upper):
        heads = hd(p, z)
        lower_heads = heads if lower_heads is None else lower_heads & heads
        upper_heads |= heads
    assert lower_heads is not None
    return NdPair(hitting_sets(lower_heads), hitting_sets(upper_heads))


@cache
def ultimate_ndao(p: Program, i: ApproxPair) -> NdPair:
    """Most precise approximating operator: union of the base operator over
    the interval, on both sides."""
    _require_consistent(i)
    gathered: NdSet = frozenset()
    for z in p.universe.interval(i.lower, i.upper):
        gathered |= ic(p, z)
    return NdPair(gathered, gathered)


@cache
def gz_ndao(p: Program, i: ApproxPair) -> NdPair:
    """Trivial operator: exact on total pairs, least precise elsewhere. Its
    total stable fixpoints are not the reduct answer sets; those of
    `ic_triv_ndao` are (README "Known defect")."""
    _require_consistent(i)
    if i.is_total:
        consequences = ic(p, i.lower)
        return NdPair(consequences, consequences)
    return NdPair(frozenset((frozenset(),)), frozenset((p.universe.full(),)))


def _shared(values: Iterable[int]) -> list[int]:
    """The values as a list holding one object per distinct value."""
    one: dict[int, int] = {}
    return [one.setdefault(v, v) for v in values]


class RuleTables:
    """What a program fires and misses at each of the 2^n sets, as rule
    bitmasks, rule k being bit k (`rule_tables`). `pos_in[x]` holds the rules
    whose pos lies within x, `neg_out[y]` those whose neg misses y, and
    `head_out[w]` those whose head misses w; each takes n doublings, one per
    atom. `fired[z]` holds the rules whose bodies hold at z
    (`CompiledRule.holds`): `pos_in[z] & neg_out[z]`, less the rules with an
    aggregate literal or a general body that does not hold there, the only
    rules that call `holds`. The program is `plain` when it has no such rule.

    On a plain program the rules `pos_in[x] & neg_out[y]` fire on the lower
    side of `ic` at (x, y) and `pos_in[y] & neg_out[x]` on its upper side,
    and `violated[x]`, which is `pos_in[x] & head_out[x]`, holds the rules x
    violates unless their negation is blocked."""

    __slots__ = ("heads", "pos_in", "neg_out", "head_out", "violated", "fired", "plain", "_covers", "_models")

    def __init__(self, u: AtomUniverse, rules: tuple[prog.CompiledRule, ...]):
        self.heads = tuple(r.head_mask for r in rules)
        every = (1 << len(rules)) - 1
        pos_in, neg_out, head_out = [every], [every], [every]
        for i in range(len(u)):
            bit = 1 << i
            with_pos = sum(1 << k for k, r in enumerate(rules) if r.pos & bit)
            with_neg = sum(1 << k for k, r in enumerate(rules) if r.neg & bit)
            with_head = sum(1 << k for k, r in enumerate(rules) if r.head_mask & bit)
            pos_in = [m & ~with_pos for m in pos_in] + pos_in
            neg_out += [m & ~with_neg for m in neg_out]
            head_out += [m & ~with_head for m in head_out]
        fired = list(map(and_, pos_in, neg_out))
        read = [(1 << k, r) for k, r in enumerate(rules) if r.formula is not None or r.aggs]
        self.plain = not read
        for bit, r in read:
            for z, f in enumerate(fired):
                if f & bit and not r.holds(u, z):
                    fired[z] = f & ~bit
        # Each table takes few distinct values over the 2^n sets; holding one
        # int per value keeps it near the size of its 2^n references.
        self.pos_in, self.neg_out, self.head_out, self.fired = map(_shared, (pos_in, neg_out, head_out, fired))
        self.violated = _shared(map(and_, pos_in, head_out))
        self._covers: dict[int, int] = {}
        self._models: dict[int, tuple[int, ...]] = {}

    def covered(self, f: int) -> int:
        """The atoms of the heads of the rules f, kept per f."""
        atoms = self._covers.get(f)
        if atoms is None:
            atoms = 0
            for k, h in enumerate(self.heads):
                if f >> k & 1:
                    atoms |= h
            self._covers[f] = atoms
        return atoms

    def member(self, w: int, f: int) -> bool:
        """Whether w is a hitting set of the heads of the rules f: it meets
        each of them and lies within their atoms."""
        return not (f & self.head_out[w] or w & ~self.covered(f))

    def minimal_models(self, live: int) -> tuple[int, ...]:
        """The minimal sets s with `violated[s] & live == 0`, in increasing
        order, kept per `live`; read on plain programs. With live = neg_out[y]
        these are the minimal models of the reduct P^y (Gelfond and
        Lifschitz, 1991), which are the complete lower stable value of `ic` at
        y: every member of the lower set at (x, y) is a model, and every
        minimal model is a member, since it is supported and so lies within
        the heads fired at (x, y). With live = neg_out[x] they are the
        complete upper stable value at x."""
        models = self._models.get(live)
        if models is None:
            found = minimal_masks(s for s, v in enumerate(self.violated) if not v & live)
            models = self._models[live] = tuple(found)
        return models


def rule_tables(p: Program) -> RuleTables:
    """The program's `RuleTables`, built by the first sweep that asks and then
    kept on its compiled form."""
    compiled = p.compile()
    if compiled.rule_tables is None:
        compiled.rule_tables = RuleTables(p.universe, compiled.rules)
    return compiled.rule_tables


class PairPlanes:
    """A consistent-only operator read at every consistent pair, as planes
    over the pair numbers (`lattice.DigitPlanes`, its `digits`): `lower`
    marks the pairs (x, y) with x in the operator's lower set, `upper` those
    with y in its upper set, `smyth` those where some member of the lower set
    lies within x, and `closed` those whose y is closed under the base
    operator, some member of ic(y) lying within y. Kept per program and
    distinct set of planes (`pair_planes`); the complete stable values are
    read from its `minimal` planes."""

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


def _missed(heads: dict[int, int], inside: Sequence[int]) -> int:
    """The pairs at which a head is marked (`heads`, by head mask) that the
    set on one side misses (`inside[i]` marks atom i in it)."""
    out = 0
    for h, plane in heads.items():
        out |= plane & ~reduce(or_, [within for i, within in enumerate(inside) if h >> i & 1])
    return out


def _members(digits: DigitPlanes, heads: dict[int, int], inside: Sequence[int]) -> int:
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
    return digits.full & ~out


def interval_tables(kind: OperatorKind, p: Program) -> PairPlanes:
    """The planes of a consistent-only operator. Each head gets the plane of
    the total pairs (z, z) at which a rule with that head fires (a plain body
    is the AND of the digit planes of its atoms; any other body is read from
    `RuleTables.fired` and spread). A set w hits the heads marked at a pair
    iff it misses none of them and lies within their atoms; some hitting set
    lies within x, the Smyth test, iff x misses none of them. Per operator:

    - `dmt`: the AND and the OR of those planes over each interval
      (`DigitPlanes.fold`) mark its lower and upper heads. A head is
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
    compiled = p.compile()
    fired = rule_tables(p).fired
    n = len(p.universe)
    digits = digit_planes(n)
    full, total, d0, d2 = digits.full, digits.total, digits.d0, digits.d2
    in_y = [full ^ d for d in d0]
    fires: dict[int, int] = {}
    for k, r in enumerate(compiled.rules):
        if r.formula is None and not r.aggs:
            plane = total
            for i in range(n):
                if r.pos >> i & 1:
                    plane &= d2[i]
                if r.neg >> i & 1:
                    plane &= d0[i]
        else:
            plane = digits.spread(int("".join("1" if f >> k & 1 else "0" for f in reversed(fired)), 2))
        fires[r.head_mask] = fires.get(r.head_mask, 0) | plane
    closed = full & ~digits.above_x(_missed(fires, d2))
    if kind is OperatorKind.DMT:
        # One side at a time: the folds of the lower side are dropped before
        # those of the upper side are built, which keeps the peak lower.
        meet = {h: digits.fold(plane, True) for h, plane in fires.items()}
        lower, smyth = _members(digits, meet, d2), full & ~_missed(meet, d2)
        del meet
        join = {h: digits.fold(plane, False) for h, plane in fires.items()}
        upper = _members(digits, join, in_y)
    elif kind is OperatorKind.ULTIMATE:
        at_y = {h: digits.above_x(plane) for h, plane in fires.items()}
        at_x = {h: digits.below_y(plane) for h, plane in fires.items()}
        lower = digits.below_y(_members(digits, at_y, d2))
        upper = digits.above_x(_members(digits, at_x, in_y))
        smyth = digits.below_y(full & ~_missed(at_y, d2))
    elif kind is OperatorKind.GZ:
        exact = total & _members(digits, fires, d2)
        x_empty = y_full = full ^ total
        for i in range(n):
            x_empty &= ~d2[i]
            y_full &= ~d0[i]
        lower, upper, smyth = exact | x_empty, exact | y_full, full & ~total | closed & total
    else:
        raise AftlabError(f"operator {kind.value!r} has no pair planes")
    return PairPlanes(digits, lower, upper, smyth, closed)


def pair_planes(kind: OperatorKind, p: Program) -> PairPlanes:
    """The planes of a consistent-only operator on the program, built by the
    first sweep that asks (`interval_tables`) and then kept on its compiled
    form. `dmt-det` reads the planes of `dmt`, the same object: on atomic
    heads, which `check_kind_applicable` asks of every `dmt-det` sweep, `dmt`
    is `dmt-det` lifted to singletons."""
    if kind is OperatorKind.DMT_DET:
        kind = OperatorKind.DMT
    kept = p.compile().pair_planes
    planes = kept.get(kind)
    if planes is None:
        planes = kept[kind] = interval_tables(kind, p)
    return planes


def apply(kind: OperatorKind, p: Program, i: ApproxPair) -> NdPair:
    """Uniform dispatch; the deterministic operator is lifted to singletons."""
    if kind is OperatorKind.IC:
        return ic_ndao(p, i)
    if kind is OperatorKind.IC_TRIV:
        return ic_triv_ndao(p, i)
    if kind is OperatorKind.DMT:
        return dmt_ndao(p, i)
    if kind is OperatorKind.ULTIMATE:
        return ultimate_ndao(p, i)
    if kind is OperatorKind.GZ:
        return gz_ndao(p, i)
    if kind is OperatorKind.DMT_DET:
        pair = dmt_det(p, i)
        return NdPair(frozenset((pair.lower,)), frozenset((pair.upper,)))
    raise AftlabError(f"unknown operator kind {kind!r}")


def check_kind_applicable(kind: OperatorKind, p: Program) -> None:
    """Raise when the program falls outside the operator's class."""
    if kind is OperatorKind.IC:
        _require_aggregate_free(p)
    elif kind is OperatorKind.DMT_DET:
        _require_atomic_heads(p)
