"""Brute-force references that share no code with aftlab.

They read the generator's structured programs (`gen.GenProgram`), work on
bitmasks over the program's atoms, and read rule bodies as sets, because
generated programs may repeat a literal.

- `answer_sets`: X is an answer set iff X is a model of P and no Y strictly
  inside X is a model of the reduct P^X (aggregate-free programs).
- `supported`: total pairs (x, x) with x in IC(x): every rule fired at x has a
  head atom in x, and x lies inside the union of the fired heads. All of
  aftlab's operators agree with IC on total pairs, so these are the total
  fixpoints of every operator.
- `ht_models`: here-and-there models (X, Y), X within Y (aggregate-free).
- `gz_answer_sets`: answer sets by the GZ reduct (positive aggregates only).
"""

from __future__ import annotations

from fractions import Fraction

from gen import GenProgram


def _bits(atoms: tuple[str, ...], names) -> int:
    m = 0
    for name in names:
        m |= 1 << atoms.index(name)
    return m


def _agg_holds(agg: tuple, atoms: tuple[str, ...], x: int) -> bool | None:
    """Truth of an aggregate atom at x; None where the value is undefined."""
    func, entries, comparator, bound = agg
    weights = [Fraction(w) for w, cond in entries if _bits(atoms, cond) & ~x == 0]
    if func == "sum":
        value = sum(weights, Fraction(0))
    elif func == "count":
        value = Fraction(len(weights))
    elif not weights:
        return None
    else:
        value = max(weights)
    return {
        "<": value < bound,
        "<=": value <= bound,
        ">": value > bound,
        ">=": value >= bound,
        "=": value == bound,
    }[comparator]


class _Compiled:
    def __init__(self, p: GenProgram):
        self.p = p
        self.n = len(p.atoms)
        self.rules = []
        for r in p.rules:
            head = _bits(p.atoms, r.head)
            pos = _bits(p.atoms, [lit.atom for lit in r.body if lit.agg is None and not lit.negated])
            neg = _bits(p.atoms, [lit.atom for lit in r.body if lit.agg is None and lit.negated])
            aggs = [(lit.agg, lit.negated) for lit in r.body if lit.agg is not None]
            self.rules.append((head, pos, neg, aggs))

    def body_true(self, rule, x: int) -> bool:
        _, pos, neg, aggs = rule
        if pos & ~x or neg & x:
            return False
        for agg, negated in aggs:
            holds = _agg_holds(agg, self.p.atoms, x)
            if holds is None or holds == negated:
                return False
        return True

    def is_model(self, x: int) -> bool:
        return all(r[0] & x for r in self.rules if self.body_true(r, x))


def _proper_submasks(x: int):
    y = x
    while y:
        y = (y - 1) & x
        yield y


def _unmask(atoms: tuple[str, ...], m: int) -> list[str]:
    return [a for i, a in enumerate(atoms) if m >> i & 1]


def answer_sets(p: GenProgram) -> list[list[str]]:
    """Answer sets of an aggregate-free program, as sorted atom lists."""
    if p.has_aggregates:
        raise ValueError("answer_sets needs an aggregate-free program")
    c = _Compiled(p)
    out = []
    for x in range(1 << c.n):
        if not c.is_model(x):
            continue
        reduct = [(head, pos) for head, pos, neg, _ in c.rules if not neg & x]
        if any(all(head & y for head, pos in reduct if not pos & ~y) for y in _proper_submasks(x)):
            continue
        out.append(_unmask(p.atoms, x))
    return out


def supported(p: GenProgram) -> list[list[str]]:
    """Sets x with x a hitting set of the heads fired at x."""
    c = _Compiled(p)
    out = []
    for x in range(1 << c.n):
        fired = [r[0] for r in c.rules if c.body_true(r, x)]
        union = 0
        for head in fired:
            union |= head
        if x & ~union == 0 and all(head & x for head in fired):
            out.append(_unmask(p.atoms, x))
    return out


def ht_models(p: GenProgram) -> list[tuple[list[str], list[str]]]:
    """Here-and-there models of an aggregate-free program."""
    if p.has_aggregates:
        raise ValueError("ht_models needs an aggregate-free program")
    c = _Compiled(p)
    out = []
    for y in range(1 << c.n):
        if not c.is_model(y):
            continue
        x = y
        while True:
            here = all(
                head & x for head, pos, neg, _ in c.rules if not pos & ~x and not neg & y
            )
            if here:
                out.append((_unmask(p.atoms, x), _unmask(p.atoms, y)))
            if x == 0:
                break
            x = (x - 1) & y
    return out


def gz_answer_sets(p: GenProgram) -> list[list[str]]:
    """Answer sets by the GZ reduct, for programs whose aggregates all occur
    positively: rules with a false or undefined aggregate at X are dropped,
    a true aggregate becomes the atoms of its conditions that hold in X, and
    X must be a minimal model of the result read at X."""
    if any(lit.agg is not None and lit.negated for r in p.rules for lit in r.body):
        raise ValueError("gz_answer_sets needs positive aggregates only")
    c = _Compiled(p)
    out = []
    for x in range(1 << c.n):
        if not c.is_model(x):
            continue
        reduct = []
        for head, pos, neg, aggs in c.rules:
            if neg & x or any(not _agg_holds(agg, p.atoms, x) for agg, _ in aggs):
                continue
            for (_, entries, _, _), _ in aggs:
                for _, cond in entries:
                    bits = _bits(p.atoms, cond)
                    if bits & ~x == 0:
                        pos |= bits
            reduct.append((head, pos))
        if any(all(head & y for head, pos in reduct if not pos & ~y) for y in _proper_submasks(x)):
            continue
        out.append(_unmask(p.atoms, x))
    return out
