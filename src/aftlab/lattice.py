"""Finite powerset lattice: atom universes, the pair orders, the set-lifted
orders (also as one AND on precision codes), lattice difference, and
deterministic enumeration of intervals and consistent pairs, also as pairs of
masks and information-above a pair, bit planes over the consistent pairs (one
bit per pair) and rows over the 2^n sets (one bit per set: an operator value
is a lower and an upper row, with its hitting sets, closures and precision
code). The two share one kit: columns tiled by shift-or doubling (`_tile`),
"holds every atom of m" and "has some atom of m" (`_within`, `_meets`), and
one closure and minimal-set pass over (shift, mask) runs (`_closure`,
`_minimal`).

Sets of atoms are plain frozensets; an :class:`AtomUniverse` fixes the atom
ordering (lexicographic) that every enumeration and rendering follows, atom i
is bit i of a set's mask, and it builds the set of each mask once.
"""

from __future__ import annotations

import os
from functools import cache, cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .record import record

AtomSet = frozenset[str]
NdSet = frozenset[AtomSet]

DEFAULT_ATOM_CAP = 12
ATOM_CAP_ENV = "AFTLAB_MAX_ATOMS"


class AftlabError(Exception):
    """Base class for all library errors."""


class UnknownAtomError(AftlabError):
    pass


class InconsistentPairError(AftlabError):
    pass


class CapExceededError(AftlabError):
    pass


def atom_cap(override: int | None = None) -> int:
    """Effective atom cap: explicit override > AFTLAB_MAX_ATOMS > default 12."""
    if override is not None:
        return override
    env = os.environ.get(ATOM_CAP_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise AftlabError(f"bad {ATOM_CAP_ENV} value: {env!r}") from exc
    return DEFAULT_ATOM_CAP


class ApproxPair(NamedTuple):
    """A pair (lower, upper) of atom sets approximating an interval."""

    lower: AtomSet
    upper: AtomSet

    @property
    def is_consistent(self) -> bool:
        return self.lower <= self.upper

    @property
    def is_total(self) -> bool:
        return self.lower == self.upper


class NdPair(NamedTuple):
    """Range element of a non-deterministic approximating operator."""

    lower_set: NdSet
    upper_set: NdSet


class Lazy(dict):
    """A dict that fills a missing key with `fill(key)` on its first read."""

    def __init__(self, fill: Callable):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


@record
class AtomUniverse:
    """Ordered set of distinct atom names; atom i maps to bit i of a mask.
    The maps `_bits` and `_sets` are built on demand and kept outside its
    fields, so pickles leave them behind."""

    __slots__ = ("__dict__",)
    atoms: tuple[str, ...]

    @staticmethod
    def of(names: Iterable[str]) -> "AtomUniverse":
        ordered = tuple(sorted(set(names)))
        for name in ordered:
            if not name:
                raise AftlabError("empty atom name")
        return AtomUniverse(ordered)

    def __len__(self) -> int:
        return len(self.atoms)

    @cached_property
    def _bits(self) -> dict[str, int]:
        """Atom name -> its bit (1 << index); the universe's only such map."""
        return {name: 1 << i for i, name in enumerate(self.atoms)}

    @cached_property
    def _sets(self) -> dict:
        """Mask -> the one set `unmask` gives for it, filled as asked, and
        that set -> its mask, which `mask` reads before it walks a set."""
        return {}

    def __contains__(self, name: str) -> bool:
        return name in self._bits

    def index(self, name: str) -> int:
        return self.mask((name,)).bit_length() - 1

    def atom_set(self, names: Iterable[str]) -> AtomSet:
        """Validated atom set over this universe."""
        s = frozenset(names)
        self.mask(s)
        return s

    def full(self) -> AtomSet:
        return frozenset(self.atoms)

    def mask(self, s: Iterable[str]) -> int:
        found = self._sets.get(s) if s.__class__ is frozenset else None
        if found is not None:
            return found
        bits = self._bits
        m = 0
        try:
            for name in s:
                m |= bits[name]
        except KeyError as exc:
            raise UnknownAtomError(f"unknown atom {exc.args[0]!r}") from None
        return m

    def unmask(self, m: int) -> AtomSet:
        """The set with mask m, built once per universe, so that pairs, sweep
        outputs and memo keys share one object and its cached hash."""
        sets = self._sets
        s = sets.get(m)
        if s is None:
            s = sets[m] = frozenset(a for i, a in enumerate(self.atoms) if m >> i & 1)
            sets[s] = m
        return s

    def family(self, row: int) -> NdSet:
        """The sets marked in a row over the 2^n sets, bit m for the set with
        mask m: the one decode of an operator value, at the API edge."""
        return frozenset([self.unmask(m) for m in bit_indices(row)])

    def row(self, sets: Iterable[AtomSet]) -> int:
        """The row of a set of sets, bit m for the set with mask m."""
        return sum(1 << m for m in {self.mask(s) for s in sets})

    def subsets(self) -> Iterator[AtomSet]:
        """All subsets in mask-counting order (first atom is the low bit)."""
        for m in range(1 << len(self.atoms)):
            yield self.unmask(m)

    def interval(self, x: AtomSet, y: AtomSet) -> Iterator[AtomSet]:
        """All z with x <= z <= y, in lexicographic subset order; 2^|y-x| many."""
        if not x <= y:
            raise InconsistentPairError(f"interval requires x <= y, got {set(x)} !<= {set(y)}")
        xm, ym = self.mask(x), self.mask(y)
        for s in submasks(ym & ~xm):
            yield self.unmask(xm | s)

    def pair(self, xm: int, ym: int) -> ApproxPair:
        return ApproxPair(self.unmask(xm), self.unmask(ym))

    def consistent_masks(self) -> Iterator[tuple[int, int]]:
        """The masks of all 3^n pairs (x, y) with x <= y, in increasing
        (mask(x), mask(y)) order; the atom cap is `Program.compile`'s to check."""
        return masks_above_i(0, (1 << len(self.atoms)) - 1)

    def consistent_pairs(self) -> Iterator[ApproxPair]:
        """All 3^n pairs (x, y) with x <= y, ordered by (mask(x), mask(y))."""
        for xm, ym in self.consistent_masks():
            yield self.pair(xm, ym)


def submasks(m: int) -> Iterator[int]:
    """The submasks of m in increasing order; the one that follows t is
    `(t - m) & m`."""
    t = 0
    while True:
        yield t
        if t == m:
            return
        t = (t - m) & m


def masks_above_i(xm: int, ym: int) -> Iterator[tuple[int, int]]:
    """The consistent mask pairs (a, b) >=_i the consistent pair (xm, ym),
    that is xm <= a <= b <= ym, in increasing (a, b) order: 3^|ym - xm| many."""
    free = ym & ~xm
    for s in submasks(free):
        a = xm | s
        for t in submasks(free & ~s):
            yield a, a | t


def _tile(block: int, period: int, size: int) -> int:
    """The block, within [0, period), repeated every period bits by shift-or
    doubling, cut at size bits: the one builder of the columns of rows and
    planes."""
    while period < size:
        block |= block << period
        period *= 2
    return block & (1 << size) - 1


def _within(m: int, inside: Sequence[int], full: int) -> int:
    """The bits of `full` whose set (`inside[i]` marks those holding atom i)
    holds every atom of the mask m."""
    while m:
        full &= inside[(m & -m).bit_length() - 1]
        m &= m - 1
    return full


def _meets(m: int, inside: Sequence[int]) -> int:
    """The bits whose set (`inside[i]` marks those holding atom i) has some
    atom of the mask m."""
    out = 0
    while m:
        out |= inside[(m & -m).bit_length() - 1]
        m &= m - 1
    return out


def _closure(marks: int, runs: Sequence[tuple[int, int]]) -> int:
    """The marks closed along each run (shift, mask) in turn: a bit in the
    mask is marked when the bit `shift` below it is. With one run per atom
    (a shift by its weight, the mask of the places it may step up from)
    this is the OR form of the subset zeta transform of `DigitPlanes`."""
    for shift, mask in runs:
        marks |= mask & (marks << shift)
    return marks


def _minimal(marks: int, runs: Sequence[tuple[int, int]], passes: int = 1) -> int:
    """The marks with no mark one or more steps down the runs: a mark has
    one iff one step down some run lands in the `_closure`, taken `passes`
    times over for runs that step a place up more than once."""
    closed = marks
    for _ in range(passes):
        closed = _closure(closed, runs)
    for shift, mask in runs:
        marks &= ~(mask & (closed << shift))
    return marks


class DigitPlanes:
    """Bit planes over the 3^n consistent pairs of n atoms (`digit_planes`).
    Pair (x, y) is number k, whose base-3 digit i is 2, 1 or 0 as atom i is
    in x, in y - x or outside y; a plane is an int of 3^n bits, bit k for
    pair k, so one int operation reads or writes every pair at once, the
    bit-parallel technique of Baeza-Yates and Gonnet ("A new approach to text
    searching", CACM 1992). `d0[i]`, `d1[i]` and `d2[i]` mark the pairs whose
    digit i is 0, 1 and 2, `total` those with x = y and `full` every pair.
    Only `d1` is kept, tiled from its run of 3^i ones (`_tile`); `d0` and
    `d2`, the same runs one run lower and higher, and `total` are built from
    it when asked, so the instance that `digit_planes` keeps per n holds n
    planes.

    The pair (x, y - a) is number k - 3^a and (x + a, y) is k + 3^a, so a
    shift by 3^a moves every pair's value to its neighbour along atom a. The
    folds and closures below take one such shift per atom: the subset-lattice
    zeta transform (Björklund, Husfeldt, Kaski and Koivisto, "Fourier meets
    Möbius", STOC 2007) run on every pair at once, the closures and minimal
    sets as `_closure` and `_minimal` over the runs (3^i, mask)."""

    __slots__ = ("n", "steps", "d1", "_decode")

    def __init__(self, n: int):
        self.n = n
        self.steps = tuple(3**i for i in range(n))
        self.d1 = tuple(_tile(((1 << s) - 1) << s, 3 * s, 3**n) for s in self.steps)
        low = n // 2
        self._decode = (3**low, _pair_keys(n, range(low)), _pair_keys(n, range(low, n)))

    @property
    def full(self) -> int:
        return (1 << 3**self.n) - 1

    @property
    def total(self) -> int:
        return self.full & ~_meets((1 << self.n) - 1, self.d1)

    @property
    def d0(self) -> tuple[int, ...]:
        return tuple(d >> s for d, s in zip(self.d1, self.steps))

    @property
    def d2(self) -> tuple[int, ...]:
        return tuple(d << s for d, s in zip(self.d1, self.steps))

    def fold(self, plane: int, meet: bool) -> int:
        """The AND (meet) or OR of the plane's total pairs over each interval:
        pair (x, y) gets the AND (OR) of the bits at (z, z) for z in [x, y]
        (other bits are ignored). With a the highest atom of y - x, [x, y]
        splits into [x, y - a] and [x + a, y], so F(x, y) = F(x, y - a) (op)
        F(x + a, y): the pass of atom a writes every pair with a in y - x,
        ascending, so the two halves a pair's last pass reads are final."""
        for s, d1 in zip(self.steps, self.d1):
            half = (plane << s) & (plane >> s) if meet else (plane << s) | (plane >> s)
            plane = plane & ~d1 | d1 & half
        return plane

    def below_y(self, plane: int) -> int:
        """Pair (x, y) marked iff some (x, z) with z in [x, y] is."""
        return _closure(plane, tuple(zip(self.steps, self.d1)))

    def above_x(self, plane: int) -> int:
        """Pair (x, y) marked iff some (z, y) with z in [x, y] is."""
        for s, d1 in zip(self.steps, self.d1):
            plane |= d1 & (plane >> s)
        return plane

    def minimal_x(self, plane: int) -> int:
        """The marked pairs (x, y) with no marked (w, y), w a proper subset of
        x: the runs step an atom up into x, where digit i is 2."""
        return _minimal(plane, tuple(zip(self.steps, self.d2)))

    def minimal_y(self, plane: int) -> int:
        """The marked pairs (x, y) with no marked (x, z), z a proper subset of
        y: the runs step an atom up into y - x, where digit i is 1."""
        return _minimal(plane, tuple(zip(self.steps, self.d1)))

    def minimal_t(self, plane: int) -> int:
        """The marked pairs with no marked pair truth-below them. On consistent
        pairs ≤_t is the digit-wise order on pair numbers: each atom's run
        (`_truth_runs`) steps its digit up by one, so the closure takes the
        runs twice over, and one step down a run into it finds any mark below."""
        return _minimal(plane, _truth_runs(self.n), 2)

    def number(self, xm: int, ym: int) -> int:
        """The number of the pair (x, y): 3^i for each atom i of x, plus 3^i
        for each atom i of y."""
        return sum(s * ((xm >> i & 1) + (ym >> i & 1)) for i, s in enumerate(self.steps))

    def keys(self, plane: int) -> list[int]:
        """The keys x << n | y of the marked pairs (x, y), in increasing
        order, which is (x, y) order. Only the set bits are visited
        (`bit_indices`): the digits of each pair number are split at digit
        n // 2 and read from two tables of 3^(n/2) entries."""
        base, low_keys, high_keys = self._decode
        keys = []
        for k in bit_indices(plane):
            high, low = divmod(k, base)
            keys.append(high_keys[high] | low_keys[low])
        keys.sort()
        return keys


def _pair_keys(n: int, atoms: range) -> list[int]:
    """x << n | y for each number of a pair (x, y) over the given atoms, whose
    lowest is digit 0."""
    keys = [0]
    for i in atoms:
        y = 1 << i
        keys = keys + [k | y for k in keys] + [k | y << n | y for k in keys]
    return keys


@cache
def digit_planes(n: int) -> DigitPlanes:
    """The digit planes over n atoms, built once per n on first use."""
    return DigitPlanes(n)


@cache
def _truth_runs(n: int) -> tuple[tuple[int, int], ...]:
    """The runs (3^i, pairs whose digit i is at least 1) of `minimal_t` over
    n atoms, built once per n on first use."""
    digits = digit_planes(n)
    return tuple((s, d1 | d1 << s) for s, d1 in zip(digits.steps, digits.d1))


def bit_indices(table: int) -> list[int]:
    """The indices of the set bits of a non-negative int, in increasing
    order: its binary digits, lowest first, are searched for each next 1 in
    turn, so only the set bits cost a step in Python."""
    bits = bin(table)[:1:-1]
    found, k = [], bits.find("1")
    while k >= 0:
        found.append(k)
        k = bits.find("1", k + 1)
    return found


def leq_t(a: ApproxPair, b: ApproxPair) -> bool:
    """Truth order: (x,y) <=_t (w,z) iff x <= w and y <= z."""
    return a.lower <= b.lower and a.upper <= b.upper


def leq_i(a: ApproxPair, b: ApproxPair) -> bool:
    """Information order: (x,y) <=_i (w,z) iff x <= w and z <= y."""
    return a.lower <= b.lower and b.upper <= a.upper


def smyth_leq(xs: NdSet, ys: NdSet) -> bool:
    """Lower powerdomain order: every y in ys dominates some x in xs."""
    return all(any(x <= y for x in xs) for y in ys)


def hoare_leq(xs: NdSet, ys: NdSet) -> bool:
    """Upper powerdomain order: every x in xs is dominated by some y in ys."""
    return all(any(x <= y for y in ys) for x in xs)


def aprec_leq(a: NdPair, b: NdPair) -> bool:
    """Information precision on operator ranges: lower sets by Smyth, upper
    sets by Hoare reversed."""
    return smyth_leq(a.lower_set, b.lower_set) and hoare_leq(b.upper_set, a.upper_set)


class PrecisionCode(NamedTuple):
    """An operator value over n atoms as two ints of 2^(n+1) bits: bit m
    stands for the set with mask m in its lower row, bit 2^n + m in its upper.
    `members` marks the members; `allowed` marks the sets Smyth-above the
    lower set and those Hoare-below the upper set. So `aprec_leq(a, b)` holds
    iff `not code(b).members & ~code(a).allowed`."""

    members: int
    allowed: int


@cache
def row_columns(n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Rows over the 2^n sets of n atoms, bit m for the set with mask m:
    every set, and per atom i the sets without i (2^i ones and 2^i zeros,
    tiled by `_tile`) and the sets with i. Built once per n on first use."""
    size = 1 << n
    full = (1 << size) - 1
    without = tuple(_tile((1 << (1 << i)) - 1, 2 << i, size) for i in range(n))
    return full, without, tuple(full ^ w for w in without)


@cache
def _row_runs(n: int) -> tuple[tuple[int, int], ...]:
    """The runs (2^i, sets with atom i) of `_closure` and `_minimal` on rows
    over the 2^n sets: the shift by 2^i moves a set without atom i to the set
    with it."""
    return tuple((1 << i, with_i) for i, with_i in enumerate(row_columns(n)[2]))


def up_closure(n: int, row: int) -> int:
    """The sets above some marked set of a row over the 2^n sets of n atoms
    (`_closure`). Bit x of the closure of a lower row is the Smyth test
    against {x}, and two rows have the same minimal sets iff they have the
    same closure."""
    return _closure(row, _row_runs(n))


def minimal_bits(n: int, row: int) -> list[int]:
    """The minimal sets of a row over the 2^n sets of n atoms, as masks in
    increasing order: the marked m with no marked proper submask
    (`_minimal`)."""
    return bit_indices(_minimal(row, _row_runs(n)))


def hitting_row(n: int, heads: Iterable[int]) -> int:
    """The hitting sets of a family of head masks over n atoms as a row over
    the 2^n sets: the sets that meet every head h (`_meets` of h) and lie
    within the heads' union (`_within` the `without` rows of the atoms
    outside it). The empty family gives {∅}; an empty head is refused."""
    row, without, inside = row_columns(n)
    union = 0
    for h in heads:
        if not h:
            raise AftlabError("empty head set has no hitting sets")
        row &= _meets(h, inside)
        union |= h
    return _within((1 << n) - 1 & ~union, without, row)


def precision_code(n: int, lower: int, upper: int) -> PrecisionCode:
    """The precision code of an operator value given by its lower and upper
    rows. The lower set's up-closure and the upper set's down-closure take
    one shift-and-or pass per atom."""
    size = 1 << n
    members = allowed = lower | upper << size
    for i, lower_half in enumerate(row_columns(n)[1]):
        bit, upper_half = 1 << i, lower_half << size
        allowed |= ((allowed & lower_half) << bit) | ((allowed >> bit) & upper_half)
    return PrecisionCode(members, allowed)


def difference(y: AtomSet, x: AtomSet) -> AtomSet:
    """Unique lattice difference on a powerset: y without x."""
    return y - x


def gap(pair: ApproxPair) -> AtomSet:
    """Undecided atoms of a consistent pair: upper without lower."""
    return difference(pair.upper, pair.lower)
