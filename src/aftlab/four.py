"""Four-valued truth algebra (T, F, U, C), formula evaluation under an
approximating pair, and here-and-there satisfaction of rules.

Conjunction is the greatest lower bound and disjunction the least upper bound
of the truth order F < {C, U} < T (C and U incomparable); negation swaps T/F
and fixes C and U. With each value held as its two bits these are `&`, `|`
and "swap the bits, then complement them".
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Union

from .lattice import (
    AftlabError,
    ApproxPair,
    AtomSet,
    AtomUniverse,
    InconsistentPairError,
    UnknownAtomError,
)
from .record import record


class Truth(Enum):
    """A truth value as its two bits (Denecker, Marek & Truszczyński 2000):
    the lower bit is its truth at x, the upper bit its truth at y of a pair
    (x, y). A value is >=_t C iff its lower bit is set and >=_t U iff its
    upper bit is set. The value of two bits is read from `_BY_BITS`."""

    F = 0b00
    U = 0b01
    C = 0b10
    T = 0b11

    def __str__(self) -> str:
        return self.name


LOWER_BIT = 0b10
UPPER_BIT = 0b01

# The value of two bits, by index: `Truth(bits)` runs `EnumMeta.__call__` in
# Python.
_BY_BITS = (Truth.F, Truth.U, Truth.C, Truth.T)


def neg(v: Truth) -> Truth:
    """Swap the two bits and complement them: T and F trade, C and U stay."""
    return _BY_BITS[(~v.value & UPPER_BIT) << 1 | (~v.value & LOWER_BIT) >> 1]


def truth_leq_t(a: Truth, b: Truth) -> bool:
    """Truth order F < {C, U} < T: bitwise inclusion."""
    return not a.value & ~b.value


def truth_leq_i(a: Truth, b: Truth) -> bool:
    """Information order U < {F, T} < C: inclusion on the lower bit, reverse
    inclusion on the upper bit."""
    return not (a.value & ~b.value & LOWER_BIT or b.value & ~a.value & UPPER_BIT)


def glb_t(a: Truth, b: Truth) -> Truth:
    return _BY_BITS[a.value & b.value]


def lub_t(a: Truth, b: Truth) -> Truth:
    return _BY_BITS[a.value | b.value]


@record
class Atom:
    name: str


@record
class Const:
    value: Truth


@record
class Not:
    operand: "Formula"


@record
class And:
    left: "Formula"
    right: "Formula"


@record
class Or:
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, Const, Not, And, Or]

TRUE = Const(Truth.T)
FALSE = Const(Truth.F)


def conj(parts: Iterable[Formula]) -> Formula:
    """Left-associated conjunction; the empty conjunction is T."""
    out: Formula | None = None
    for part in parts:
        out = part if out is None else And(out, part)
    return TRUE if out is None else out


def disj(parts: Iterable[Formula]) -> Formula:
    """Left-associated disjunction; the empty disjunction is F."""
    out: Formula | None = None
    for part in parts:
        out = part if out is None else Or(out, part)
    return FALSE if out is None else out


def formula_atoms(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset((f.name,))
    if isinstance(f, Const):
        return frozenset()
    if isinstance(f, Not):
        return formula_atoms(f.operand)
    return formula_atoms(f.left) | formula_atoms(f.right)


def formula_depth(f: Formula) -> int:
    """The number of connectives on the longest path from f down to an atom
    or constant. Computed without recursion and once per shared subformula,
    since a formula built through the API may nest deeper than Python
    recurses."""
    depth: dict[int, int] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        parts = (g.operand,) if isinstance(g, Not) else (g.left, g.right) if isinstance(g, (And, Or)) else ()
        if all(id(h) in depth for h in parts):
            depth[id(g)] = max((depth[id(h)] + 1 for h in parts), default=0)
        else:
            stack.append(g)
            stack.extend(h for h in parts if id(h) not in depth)
    return depth[id(f)]


def eval_pair(u: AtomUniverse, i: ApproxPair, f: Formula) -> Truth:
    """Four-valued value of f under (x, y); total on arbitrary pairs."""
    if isinstance(f, Atom):
        if f.name not in u:
            raise UnknownAtomError(f"unknown atom {f.name!r}")
        return _BY_BITS[(f.name in i.lower) << 1 | (f.name in i.upper)]
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Not):
        return neg(eval_pair(u, i, f.operand))
    if isinstance(f, And):
        return glb_t(eval_pair(u, i, f.left), eval_pair(u, i, f.right))
    if isinstance(f, Or):
        return lub_t(eval_pair(u, i, f.left), eval_pair(u, i, f.right))
    raise AftlabError(f"not a formula: {f!r}")


def eval_two(u: AtomUniverse, x: AtomSet, f: Formula) -> Truth:
    """Two-valued evaluation at the total pair (x, x)."""
    return eval_pair(u, ApproxPair(x, x), f)


def ht_satisfies(u: AtomUniverse, i: ApproxPair, f: Formula) -> bool:
    """Here-and-there satisfaction at a consistent pair.

    Atoms hold when in the lower set; a negation holds when the formula is
    not classically true at the upper set; conjunction and disjunction go
    componentwise.
    """
    if not i.is_consistent:
        raise InconsistentPairError("HT satisfaction needs a consistent pair")
    if isinstance(f, Atom):
        if f.name not in u:
            raise UnknownAtomError(f"unknown atom {f.name!r}")
        return f.name in i.lower
    if isinstance(f, Const):
        return f.value is Truth.T
    if isinstance(f, Not):
        return eval_two(u, i.upper, f.operand) is not Truth.T
    if isinstance(f, And):
        return ht_satisfies(u, i, f.left) and ht_satisfies(u, i, f.right)
    if isinstance(f, Or):
        return ht_satisfies(u, i, f.left) or ht_satisfies(u, i, f.right)
    raise AftlabError(f"not a formula: {f!r}")


@record
class HTRule:
    """A rule body -> head-disjunction, its formulas built once. Under
    here-and-there it holds at a consistent pair (x, y) iff its HT
    implication clause holds there (`here`) and its material implication
    ¬body ∨ head is classically true at the upper set (`there`), which
    reads y alone."""

    body: Formula
    head: Formula
    implication: Formula

    @staticmethod
    def of(body: Formula, head: Iterable[str]) -> "HTRule":
        head_atoms = tuple(head)
        if not head_atoms:
            raise AftlabError("rule head must be non-empty")
        head_formula = disj(Atom(a) for a in head_atoms)
        return HTRule(body, head_formula, Or(Not(body), head_formula))

    def here(self, u: AtomUniverse, i: ApproxPair) -> bool:
        return not ht_satisfies(u, i, self.body) or ht_satisfies(u, i, self.head)

    def there(self, u: AtomUniverse, y: AtomSet) -> bool:
        return eval_two(u, y, self.implication) is Truth.T


def ht_satisfies_rule(u: AtomUniverse, i: ApproxPair, body: Formula, head: Iterable[str]) -> bool:
    """HT satisfaction of body -> head-disjunction (`HTRule`): the HT
    implication clause at i and classical truth of the material implication
    at the upper set."""
    rule = HTRule.of(body, head)
    here, there = rule.here(u, i), rule.there(u, i.upper)
    return here and there
