"""Finite powerset lattice: atom universes, the pair orders, the set-lifted
orders (also as one AND on precision codes), lattice difference, and
deterministic enumeration of intervals and consistent pairs, also as pairs of
masks and information-above a pair, bit planes over the consistent pairs (one
bit per pair) and rows over the 2^n sets (one bit per set).

Sets of atoms are plain frozensets; an :class:`AtomUniverse` fixes the atom
ordering (lexicographic) that every enumeration and rendering follows, atom i
is bit i of a set's mask, and it builds the set of each mask once.
"""

from __future__ import annotations

import os
from functools import cache, cached_property
from typing import Iterable, Iterator, NamedTuple

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


@record
class AtomUniverse:
    """Ordered set of distinct atom names; atom i maps to bit i of a mask.
    The maps `_bits` and `_sets` and the tuple `consistent_tuple` are built on
    demand and kept outside its fields, so pickles leave them behind."""

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
    def _sets(self) -> dict[int, AtomSet]:
        """Mask -> the one set `unmask` gives for it, filled as asked."""
        return {}

    @cached_property
    def consistent_tuple(self) -> tuple[ApproxPair, ...]:
        """All 3^n consistent pairs, in `consistent_pairs` order, built on the
        first ask and kept: the laws read them again and again."""
        return tuple(self.consistent_pairs())

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
        return s

    def pair_key(self, pair: ApproxPair) -> tuple[int, int]:
        return (self.mask(pair.lower), self.mask(pair.upper))

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


class DigitPlanes:
    """Bit planes over the 3^n consistent pairs of n atoms (`digit_planes`).
    Pair (x, y) is number k, whose base-3 digit i is 2, 1 or 0 as atom i is
    in x, in y - x or outside y; a plane is an int of 3^n bits, bit k for
    pair k, so one int operation reads or writes every pair at once, the
    bit-parallel technique of Baeza-Yates and Gonnet ("A new approach to text
    searching", CACM 1992). `d0[i]`, `d1[i]` and `d2[i]` mark the pairs whose
    digit i is 0, 1 and 2, `total` those with x = y and `full` every pair.
    Only `d1` is kept; `d0` and `d2`, the same runs one run lower and
    higher, and `total` are built from it when asked, so the instance that
    `digit_planes` keeps per n holds n planes.

    The pair (x, y - a) is number k - 3^a and (x + a, y) is k + 3^a, so a
    shift by 3^a moves every pair's value to its neighbour along atom a. The
    folds and closures below take one such shift per atom: the subset-lattice
    zeta transform (Björklund, Husfeldt, Kaski and Koivisto, "Fourier meets
    Möbius", STOC 2007) run on every pair at once."""

    __slots__ = ("n", "steps", "d1", "_decode")

    def __init__(self, n: int):
        self.n = n
        self.steps = tuple(3**i for i in range(n))
        self.d1 = tuple(self._repeat(((1 << s) - 1) << s, 3 * s) for s in self.steps)
        low = n // 2
        self._decode = (3**low, _pair_keys(n, range(low)), _pair_keys(n, range(low, n)))

    @property
    def full(self) -> int:
        return (1 << 3**self.n) - 1

    @property
    def total(self) -> int:
        total = self.full
        for d in self.d1:
            total &= ~d
        return total

    @property
    def d0(self) -> tuple[int, ...]:
        return tuple(d >> s for d, s in zip(self.d1, self.steps))

    @property
    def d2(self) -> tuple[int, ...]:
        return tuple(d << s for d, s in zip(self.d1, self.steps))

    def _repeat(self, block: int, period: int) -> int:
        """The block, within [0, period), repeated every period bits by
        shift-or doubling, cut at 3^n bits."""
        while period < 3**self.n:
            block |= block << period
            period *= 2
        return block & self.full

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
        for s, d1 in zip(self.steps, self.d1):
            plane |= d1 & (plane << s)
        return plane

    def above_x(self, plane: int) -> int:
        """Pair (x, y) marked iff some (z, y) with z in [x, y] is."""
        for s, d1 in zip(self.steps, self.d1):
            plane |= d1 & (plane >> s)
        return plane

    def minimal_x(self, plane: int) -> int:
        """The marked pairs (x, y) with no marked (w, y), w a proper subset of
        x. `closed` marks (x, y) when some (w, y) with w within x is marked;
        (x, y) has a marked proper subset iff some atom a of x has (x - a, y)
        in `closed`."""
        closed, runs = plane, tuple(zip(self.steps, self.d2))
        for s, d2 in runs:
            closed |= d2 & (closed << s)
        for s, d2 in runs:
            plane &= ~(d2 & (closed << s))
        return plane

    def minimal_y(self, plane: int) -> int:
        """The marked pairs (x, y) with no marked (x, z), z a proper subset of
        y."""
        closed = self.below_y(plane)
        for s, d1 in zip(self.steps, self.d1):
            plane &= ~(d1 & (closed << s))
        return plane

    def minimal_t(self, plane: int) -> int:
        """The marked pairs with no marked pair truth-below them. On consistent
        pairs ≤_t is the digit-wise order on pair numbers, so `closed`, the
        up-closure, takes two shifts by 3^i per atom i, each kept where digit
        i is at least 1, and a pair has a marked pair below it iff one step
        down some digit lands in `closed`."""
        closed, runs = plane, tuple(zip(self.steps, self.d1))
        for s, d1 in runs:
            for _ in range(2):
                closed |= (d1 | d1 << s) & (closed << s)
        for s, d1 in runs:
            plane &= ~((d1 | d1 << s) & (closed << s))
        return plane

    def number(self, xm: int, ym: int) -> int:
        """The number of the pair (x, y): 3^i for each atom i of x, plus 3^i
        for each atom i of y."""
        return sum(s * ((xm >> i & 1) + (ym >> i & 1)) for i, s in enumerate(self.steps))

    def pairs(self, plane: int) -> Iterator[tuple[int, int]]:
        """The (x, y) masks of the marked pairs, in increasing order. Only the
        set bits are visited: the digits of each pair number are split at
        digit n // 2 and read from two tables of 3^(n/2) entries, which give
        x << n | y, a key in (x, y) order."""
        base, low_keys, high_keys = self._decode
        bits = bin(plane)[:1:-1]
        keys = []
        k = bits.find("1")
        while k >= 0:
            high, low = divmod(k, base)
            keys.append(high_keys[high] | low_keys[low])
            k = bits.find("1", k + 1)
        keys.sort()
        n, y = self.n, (1 << self.n) - 1
        return ((key >> n, key & y) for key in keys)


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
    """An `NdPair` over n atoms as two ints of 2^(n+1) bits: bit m stands for
    the set with mask m in the lower set, bit 2^n + m for it in the upper set.
    `members` marks the members; `allowed` marks the sets Smyth-above the
    lower set and those Hoare-below the upper set. So `aprec_leq(a, b)` holds
    iff `not code(b).members & ~code(a).allowed`."""

    members: int
    allowed: int


@cache
def _closure_steps(n: int) -> tuple[tuple[int, int, int], ...]:
    """Per atom i: its bit, and the sets without atom i as a row (bit m for
    mask m) and as the upper half of a `PrecisionCode`."""
    steps = []
    for i in range(n):
        bit = 1 << i
        without = sum(1 << m for m in range(1 << n) if not m & bit)
        steps.append((bit, without, without << (1 << n)))
    return tuple(steps)


def minimal_bits(n: int, row: int) -> list[int]:
    """The minimal sets of a row over the 2^n sets of n atoms (bit m for the
    set with mask m), as masks in increasing order: the marked m with no
    marked proper submask. As in `DigitPlanes.minimal_x`, one shift per atom
    marks the up-closure `closed`, and m has a marked proper submask iff some
    atom a of m has m - a in it."""
    closed, steps = row, _closure_steps(n)
    for bit, without, _ in steps:
        closed |= (closed & without) << bit
    for bit, without, _ in steps:
        row &= ~((closed & without) << bit)
    found = []
    while row:
        found.append((row & -row).bit_length() - 1)
        row &= row - 1
    return found


def precision_code(u: AtomUniverse, value: NdPair) -> PrecisionCode:
    """The precision code of an operator value. The lower set's up-closure and
    the upper set's down-closure are the OR form of the subset zeta transform
    (`DigitPlanes`): one shift-and-or pass per atom."""
    size = 1 << len(u)
    mask = u.mask
    members = 0
    for s in value.lower_set:
        members |= 1 << mask(s)
    for s in value.upper_set:
        members |= 1 << (size + mask(s))
    allowed = members
    for bit, lower, upper in _closure_steps(len(u)):
        allowed |= ((allowed & lower) << bit) | ((allowed >> bit) & upper)
    return PrecisionCode(members, allowed)


def difference(y: AtomSet, x: AtomSet) -> AtomSet:
    """Unique lattice difference on a powerset: y without x."""
    return y - x


def gap(pair: ApproxPair) -> AtomSet:
    """Undecided atoms of a consistent pair: upper without lower."""
    return difference(pair.upper, pair.lower)
