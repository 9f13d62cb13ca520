"""The definitional referee: each answer aftlab gives, stated once on
frozensets, and the programs it is run over (`SCOPE`). It reads
`operators.apply`, `semantics.minimal_sets`, `min_t` and `mc`,
`program.gl_transform` and `gz_reduct`, and `four`'s formula values and HT
readings; no bit plane or row (`tests/test_referee.py` checks). SEQ is that
of Amendola, Eiter, Fink, Leone and Moura ("Semi-equilibrium models for
paracoherent answer set programs", AIJ 2016)."""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations
from operator import eq, ge, gt, le, lt

from aftlab import corpus, four, laws, operators as ops, render, semantics as sem
from aftlab.four import Truth
from aftlab.generator import GeneratorConfig, generate_program
from aftlab.lattice import AftlabError, ApproxPair, AtomUniverse, InconsistentPairError, NdPair
from aftlab.lattice import aprec_leq, leq_i, leq_t, masks_above_i, smyth_leq
from aftlab.operators import OperatorKind
from aftlab.program import AggFunc, Conj, GeneralFormula, NegatedAtom, PositiveAgg, PositiveAtom, ProgramClassError
from aftlab.program import Rule, body_formula, classify, gl_transform, gz_reduct, make_program, parse

def forget() -> None:
    """Drop what the readings below keep, and the programs they hold."""
    for fn in (consistent, hd, ic, values, lower_stable, upper_stable, stable, ht_pairs, least_lower, least_upper,
               det_stable, is_three_valued_stable):
        fn.cache_clear()


def truth_leq_t(a: Truth, b: Truth) -> bool:
    """Truth order F < {C, U} < T: bitwise inclusion."""
    return not a.value & ~b.value


def truth_leq_i(a: Truth, b: Truth) -> bool:
    """Information order U < {F, T} < C: inclusion on the lower bit, reversed on the upper."""
    return not (a.value & ~b.value & four.LOWER_BIT or b.value & ~a.value & four.UPPER_BIT)


# Body and aggregate readings.

COMPARE = {"<": lt, "<=": le, ">=": ge, ">": gt, "=": eq}


def literal_reading(x, lit) -> bool:
    """Two-valued truth of a body literal at the set x. An aggregate sums,
    counts or maximises the first weights of the entries whose condition
    holds in x; the max of none makes the literal false either way round."""
    if isinstance(lit, (PositiveAtom, NegatedAtom)):
        return (lit.name in x) == isinstance(lit, PositiveAtom)
    agg = lit.agg
    firsts = [e.weights[0] for e in agg.term.entries if set(e.condition) <= x]
    if agg.func is AggFunc.MAX and not firsts:
        return False
    value = sum(firsts) if agg.func is AggFunc.SUM else len(firsts) if agg.func is AggFunc.COUNT else max(firsts)
    return COMPARE[agg.comparator.value](value, agg.bound) == isinstance(lit, PositiveAgg)


def trivial_aggregate_value(i: ApproxPair, lit) -> Truth:
    """The trivial approximation of an aggregate literal at i = (x, y): exact
    where each entry condition has one truth at x and at y, else its lower
    reading holds iff a condition holds at x only, its upper iff at y only."""
    at = [(set(e.condition) <= i.lower, set(e.condition) <= i.upper) for e in lit.agg.term.entries]
    below = any(at_x and not at_y for at_x, at_y in at)
    above = any(at_y and not at_x for at_x, at_y in at)
    if below or above:
        return Truth(below << 1 | above)
    return Truth.T if literal_reading(i.lower, lit) else Truth.F


def formula_reading(rule: Rule, i: ApproxPair) -> four.Formula:
    """The body as a formula, each aggregate literal replaced by the constant
    of its trivial approximation at i."""
    if isinstance(rule.body, GeneralFormula):
        return rule.body.formula
    return four.conj(
        four.Atom(lit.name) if isinstance(lit, PositiveAtom)
        else four.Not(four.Atom(lit.name)) if isinstance(lit, NegatedAtom)
        else four.Const(trivial_aggregate_value(i, lit))
        for lit in rule.body.items
    )


# The reference operators.


def all_pairs(u) -> list[ApproxPair]:
    """Every pair (x, y) over the universe u, the inconsistent ones too."""
    subsets = list(u.subsets())
    return [ApproxPair(x, y) for x in subsets for y in subsets]


@cache
def consistent(u) -> tuple[ApproxPair, ...]:
    """The 3^n consistent pairs over the universe u, in `consistent_pairs` order."""
    return tuple(u.consistent_pairs())


def meet(sets):
    return frozenset.intersection(*sets)


def join(sets):
    return frozenset().union(*sets)


def hitting_sets(heads):
    """Every subset of the heads' atoms that meets each head."""
    union = sorted(join(heads))
    candidates = [frozenset(a for k, a in enumerate(union) if m >> k & 1) for m in range(1 << len(union))]
    return frozenset(c for c in candidates if all(c & delta for delta in heads))


@cache
def hd(p, x):
    """The heads of the rules whose bodies hold at the set x."""
    return frozenset(r.head_set() for r in p.rules if (
        four.eval_two(p.universe, x, r.body.formula) is Truth.T if isinstance(r.body, GeneralFormula)
        else all(literal_reading(x, lit) for lit in r.body.items)))


@cache
def ic(p, x):
    return hitting_sets(hd(p, x))


def fired_atoms(p, z):
    return join(hd(p, z))


def weakly_supported_models(p) -> list:
    """The models x of p in which every atom is in the head of a rule whose
    body holds at x (Brass and Dix, "Characterizations of the disjunctive
    stable semantics by partial evaluation", JLP 1997): each head of
    `hd(p, x)` meets x, and x lies within their union."""
    return [x for x in p.universe.subsets() if all(h & x for h in hd(p, x)) and x <= join(hd(p, x))]


def heads_at_least(p, i: ApproxPair, threshold: Truth) -> frozenset:
    """The heads of the rules whose formula reading at i is >=_t threshold."""
    return frozenset(
        r.head_set() for r in p.rules if truth_leq_t(threshold, four.eval_pair(p.universe, i, formula_reading(r, i)))
    )


def operator_value(kind: OperatorKind, p, i: ApproxPair) -> NdPair:
    """Each operator at i = (x, y), on sets: the four-valued ones the hitting
    sets of the heads whose body reading is >=_t C and of those >=_t U; `dmt`
    those of the meet and the join of `hd` over [x, y]; `ultimate` the union
    of `ic` over it; `gz` `ic(x)` on a total pair, else ({∅}, {A}); `dmt-det`
    the meet and the join of the fired atoms over it, as singletons. `ic`
    needs an aggregate-free program, `dmt-det` atomic heads, and all but the
    four-valued operators a consistent pair."""
    cls = classify(p)
    if kind is OperatorKind.IC and cls.has_aggregates or kind is OperatorKind.DMT_DET and not cls.atomic_heads:
        raise ProgramClassError(f"{kind.value} is not defined on this program")
    if kind in ops.FOUR_VALUED:
        return NdPair(*(hitting_sets(heads_at_least(p, i, t)) for t in (Truth.C, Truth.U)))
    if not i.is_consistent:
        raise InconsistentPairError(f"{kind.value} is not defined on an inconsistent pair")
    interval = list(p.universe.interval(i.lower, i.upper))
    if kind is OperatorKind.DMT:
        heads = [hd(p, z) for z in interval]
        return NdPair(hitting_sets(meet(heads)), hitting_sets(join(heads)))
    if kind is OperatorKind.ULTIMATE:
        return NdPair(*[join([ic(p, z) for z in interval])] * 2)
    if kind is OperatorKind.GZ:
        return NdPair(*[ic(p, i.lower)] * 2) if i.is_total else NdPair({frozenset()}, {p.universe.full()})
    atoms = [fired_atoms(p, z) for z in interval]
    return NdPair({meet(atoms)}, {join(atoms)})


# The semantics of one operator, read through `ops.apply`.


@cache
def values(p, kind: OperatorKind) -> dict:
    """`ops.apply` at every pair of the operator's domain: every pair for the
    four-valued operators, the consistent ones for the others."""
    return {i: ops.apply(kind, p, i) for i in all_pairs(p.universe) if kind in ops.FOUR_VALUED or i.is_consistent}


def fixpoints(p, kind: OperatorKind) -> list[ApproxPair]:
    v = values(p, kind)
    return [i for i in consistent(p.universe) if i.lower in v[i].lower_set and i.upper in v[i].upper_set]


@cache
def lower_stable(p, kind: OperatorKind) -> dict:
    """The complete lower stable value at each set y: the minimal x of the
    operator's domain with x in its lower set at (x, y)."""
    v, subsets = values(p, kind), list(p.universe.subsets())
    return {y: sem.minimal_sets(x for x in subsets if (x, y) in v and x in v[x, y].lower_set) for y in subsets}


@cache
def upper_stable(p, kind: OperatorKind) -> dict:
    """The complete upper stable value at each set x: the minimal y of the
    operator's domain with y in its upper set at (x, y)."""
    v, subsets = values(p, kind), list(p.universe.subsets())
    return {x: sem.minimal_sets(y for y in subsets if (x, y) in v and y in v[x, y].upper_set) for x in subsets}


@cache
def stable(p, kind: OperatorKind) -> list[ApproxPair]:
    lower, upper = lower_stable(p, kind), upper_stable(p, kind)
    return [i for i in consistent(p.universe) if i.lower in lower[i.upper] and i.upper in upper[i.lower]]


@cache
def ht_pairs(p, kind: OperatorKind) -> list[ApproxPair]:
    """The pairs (x, y) with y closed, a member of `ic(y)` within y, and a
    member of the operator's lower set at (x, y) within x."""
    v, closed = values(p, kind), {y: smyth_leq(ic(p, y), {y}) for y in p.universe.subsets()}
    return [i for i in consistent(p.universe) if closed[i.upper] and smyth_leq(v[i].lower_set, {i.lower})]


def seq_approx(p, kind: OperatorKind) -> list[ApproxPair]:
    minimal = sem.min_t(ht_pairs(p, kind))
    return [a for a in minimal if not any(b != a and leq_i(a, b) for b in minimal)]


# The deterministic operator: least-fixpoint loops, Kripke-Kleene, wf.


@cache
def least_lower(p, y):
    """The least fixpoint of w -> the atoms derived at every set of [w, y],
    reached by iteration from the empty set; an empty interval (w not below
    y) gives the full universe, which keeps the map monotone."""
    w = frozenset()
    while (nxt := meet([fired_atoms(p, z) for z in p.universe.interval(w, y)]) if w <= y else p.universe.full()) != w:
        w = nxt
    return w


@cache
def least_upper(p, x):
    """The least of the fixpoints over the supersets of x of z -> the atoms
    derived at some set of [x, z], or None where they have no least one."""
    u = p.universe
    fixed = [z for z in u.subsets() if x <= z and join([fired_atoms(p, w) for w in u.interval(x, z)]) == z]
    return next((z for z in fixed if all(z <= other for other in fixed)), None)


@cache
def det_stable(p) -> list[ApproxPair]:
    """Pairs (x, y) with x `least_lower(y)` and y `least_upper(x)`. The
    operator is defined on atomic heads only (`values` refuses)."""
    values(p, OperatorKind.DMT_DET)
    pairs = consistent(p.universe)
    return [i for i in pairs if least_lower(p, i.upper) == i.lower and least_upper(p, i.lower) == i.upper]


def det_lower_stable(p) -> dict:
    """The complete lower stable value of `dmt-det` at each set y: the one
    minimal fixpoint is `least_lower(y)`, if it lies below y."""
    values(p, OperatorKind.DMT_DET)
    return {y: {w} if (w := least_lower(p, y)) <= y else set() for y in p.universe.subsets()}


def kk(p) -> ApproxPair:
    """`dmt-det` iterated from the least precise pair until it stops moving."""
    pair = ApproxPair(frozenset(), p.universe.full())
    while True:
        (lower,), (upper,) = ops.apply(OperatorKind.DMT_DET, p, pair)
        if (lower, upper) == pair:
            return pair
        pair = ApproxPair(lower, upper)


def wf(p) -> ApproxPair:
    """The information-least deterministic stable pair, if there is one."""
    found = det_stable(p)
    least = [i for i in found if all(leq_i(i, j) for j in found)]
    if not least:
        raise AftlabError("program has no information-least deterministic stable fixpoint")
    return least[0]


# Three-valued stable models, GZ answer sets, HT models and SEQ.


def gl_model(p, i: ApproxPair):
    """The model test of p's GL transformation at i: j is a model iff each
    body's value at j (`four.eval_pair`) is truth-below that of its head."""
    u = p.universe
    rules = [(body_formula(r), four.disj(map(four.Atom, r.head))) for r in gl_transform(p, i).rules]
    return lambda j: all(truth_leq_t(four.eval_pair(u, j, body), four.eval_pair(u, j, head)) for body, head in rules)


@cache
def is_three_valued_stable(p, i: ApproxPair) -> bool:
    """Przymusinski's definition: i is a model of p's GL transformation at i
    and no other consistent pair truth-below i is."""
    model = gl_model(p, i)
    return model(i) and not any(j != i and leq_t(j, i) and model(j) for j in consistent(p.universe))


def gz_answer_sets(p) -> list:
    """The x with (x, x) three-valued stable for `gz_reduct(p, x)`; where the
    reduct is p, as on an aggregate-free program, p's reading is reused."""
    return [x for x in p.universe.subsets()
            if is_three_valued_stable(p if (reduct := gz_reduct(p, x)) == p else reduct, ApproxPair(x, x))]


def ht_rule(u, i: ApproxPair, body, head) -> bool:
    """HT satisfaction of body -> head, the head as a set of atoms: if the
    body holds at (x, y) in HT, a head atom is in x, and if it is
    classically true at y, a head atom is in y."""
    here = not four.ht_satisfies(u, i, body) or bool(i.lower & frozenset(head))
    there = four.eval_two(u, i.upper, body) is not Truth.T or bool(i.upper & frozenset(head))
    return here and there


def ht_models(p) -> list[ApproxPair]:
    """The pairs at which every rule is HT-satisfied (`ht_rule`)."""
    u, rules = p.universe, [(body_formula(r), r.head) for r in p.rules]
    return [i for i in consistent(p.universe) if all(ht_rule(u, i, body, head) for body, head in rules)]


def semi_equilibrium(p) -> list[ApproxPair]:
    """`mc` of the h-minimal HT models, with no HT model (x', y) for x' ⊊ x."""
    models = ht_models(p)
    return sem.mc([m for m in models if not any(n.upper == m.upper and n.lower < m.lower for n in models)])


# Each semantics of `semantics.SEMANTICS`, by name, on (program, operator).
CELLS = {
    "fixpoints": fixpoints,
    "stable": stable,
    "total-stable": lambda p, kind: [i for i in stable(p, kind) if i.is_total],
    "kk": lambda p, kind: [kk(p)],
    "wf": lambda p, kind: [wf(p)],
    "ht": ht_pairs,
    "seq": lambda p, kind: sem.mc(sem.min_t(ht_pairs(p, kind))),
    "seq-approx": seq_approx,
    "three-valued-stable": lambda p, kind: [i for i in consistent(p.universe) if is_three_valued_stable(p, i)],
    "gz-answer-sets": lambda p, kind: [ApproxPair(x, x) for x in gz_answer_sets(p)],
}


# The four laws that order operator values, on frozensets: they compare the
# values with `aprec_leq` and `smyth_leq` where the laws compare precision
# codes, and give the laws' cases and messages.


def frozenset_monotonicity(p, apply_fn):
    kinds = laws._ndao_kinds(p) + ([OperatorKind.DMT_DET] if p.compile().classification.atomic_heads else [])
    u, cases = p.universe, 0
    index = dict(zip(u.consistent_masks(), consistent(u)))
    for kind in kinds:
        found = {key: apply_fn(kind, p, i) for key, i in index.items()}
        for key1, key2 in ((key1, key2) for key1 in index for key2 in masks_above_i(*key1)):
            cases += 1
            if not aprec_leq(found[key1], found[key2]):
                pairs = f"{render.fmt_pair(u, index[key1])} <=_i {render.fmt_pair(u, index[key2])}"
                return cases, f"{kind.value} not precision-monotone: {pairs}"
    return cases, None


def frozenset_precision_chain(p, apply_fn):
    pairs = consistent(p.universe)
    for cases, i in enumerate(pairs, 1):
        gz, dmt, ult = (apply_fn(k, p, i) for k in (OperatorKind.GZ, OperatorKind.DMT, OperatorKind.ULTIMATE))
        for below, above, what in ((gz, dmt, "gz not below dmt"), (dmt, ult, "dmt not below ultimate")):
            if not aprec_leq(below, above):
                return cases, f"{what} at {render.fmt_pair(p.universe, i)}"
    return len(pairs), None


def frozenset_ultimate_max(p, apply_fn):
    cases = 0
    for i in consistent(p.universe):
        ult = apply_fn(OperatorKind.ULTIMATE, p, i)
        for kind in (k for k in laws._ndao_kinds(p) if k is not OperatorKind.ULTIMATE):
            cases += 1
            if not aprec_leq(apply_fn(kind, p, i), ult):
                return cases, f"{kind.value} not below ultimate at {render.fmt_pair(p.universe, i)}"
    return cases, None


def frozenset_upwards_coherence(p, apply_fn):
    cases = 0
    for kind in laws._ndao_kinds(p):
        for i in consistent(p.universe):
            cases += 1
            value = apply_fn(kind, p, i)
            if not value.lower_set or not value.upper_set:
                return cases, f"{kind.value} returned an empty candidate set at {render.fmt_pair(p.universe, i)}"
            if not smyth_leq(value.lower_set, value.upper_set):
                return cases, f"{kind.value} not upwards coherent at {render.fmt_pair(p.universe, i)}"
    return cases, None


FROZENSET_LAWS = {
    "monotonicity": frozenset_monotonicity,
    "precision-chain": frozenset_precision_chain,
    "ultimate-max": frozenset_ultimate_max,
    "upwards-coherence": frozenset_upwards_coherence,
}


# The programs.


def seeded(seeds, **config):
    """`generate_program` at each seed; a config value is a constant or a function of the seed."""
    return [generate_program(GeneratorConfig(seed=s, **{k: v(s) if callable(v) else v for k, v in config.items()}))
            for s in seeds]


# n = 1..5, alternately atomic and disjunctive heads, without aggregates, with
# positive aggregates and with negated ones as well; the corpus; and a program
# with general formula bodies: every class of body and head.
GENERAL_BODY = "p :- not (q & r) | s.\nq :- not p | #false.\nr | s :- not not p & (q | #true).\n"
PROGRAMS = [
    *seeded(range(45), atoms=lambda s: 1 + s % 5, rules=lambda s: 1 + s % 4, negation_probability=0.4,
            aggregate_probability=lambda s: (0.0, 0.5, 0.7)[s % 3], disjunction_width=lambda s: 1 + s // 5 % 2),
    *corpus.programs(),
    parse(GENERAL_BODY),
]


def characteristic_program(atoms, table):
    """The program with a rule h :- body(z) for each atom h of table[z], where
    body(z) holds exactly at z; its fired atoms at the set z are table[z]."""
    rules = []
    for z, fired in enumerate(table):
        body = ", ".join(a if z >> i & 1 else f"not {a}" for i, a in enumerate(atoms))
        rules += [f"{h} :- {body}." for i, h in enumerate(atoms) if fired >> i & 1]
    return make_program(parse("\n".join(rules)).rules, AtomUniverse.of(atoms))


def fired_atom_tables():
    """Every fired-atom table over 2 atoms, a seeded sample over 3 atoms, and a
    program whose upper map at x = {a} has two minimal fixpoints, {a, b} and
    {a, c}."""
    for k in range(4**4):
        yield characteristic_program("ab", [k >> 2 * z & 3 for z in range(4)])
    rng = random.Random(8)
    for _ in range(150):
        yield characteristic_program("abc", [rng.randrange(8) for _ in range(8)])
    yield parse("a :- b.\nb :- b.\na :- c.\nc :- c.\n")


def plain_corpus():
    return [p for p in corpus.programs() if classify(p).plain]


def plain_programs(atoms, seeds):
    """Seeded, aggregate-free: widths 1-3, negation 0.4 and 0.7, 1 to 2n rules."""
    return [p for n in atoms for width in (1, 2, 3) for negation in (0.4, 0.7)
            for p in seeded(seeds, atoms=n, rules=lambda s: 1 + s % (2 * n), negation_probability=negation,
                            disjunction_width=width)]


def reduct_programs():
    """The sum programs of the corpus, two one-rule aggregate programs and
    seeded programs of 1 to 5 atoms without negated aggregates."""
    programs = [corpus.load("sum_chain"), corpus.load("sum_split"), parse("p :- #count{1:p & q} < 1."),
                parse("p :- #sum{1:p} >= 0.")]
    programs += seeded(range(150), atoms=lambda s: 1 + s % 5, rules=lambda s: 1 + s % 4, aggregate_probability=0.6,
                       disjunction_width=lambda s: 1 + s // 5 % 2)
    return [p for p in programs if not classify(p).has_negated_aggregates]


def exhaustive_programs():
    """The 1,177 programs over {a, b} of at most two of the 48 plain rules,
    up to swapping a and b (`tests/test_renaming.py` checks renaming): the
    605 not above their swapped image in rule order."""
    sets = [(), ("a",), ("b",), ("a", "b")]
    shapes = [(head, pos, neg) for head in (1, 2, 3) for pos in range(4) for neg in range(4)]
    swap = [0, 2, 1, 3]
    mirror = [shapes.index((swap[head], swap[pos], swap[neg])) for head, pos, neg in shapes]
    rules = [Rule(sets[h], Conj((*map(PositiveAtom, sets[i]), *map(NegatedAtom, sets[j])))) for h, i, j in shapes]
    return [
        make_program(tuple(rules[k] for k in chosen), AtomUniverse.of("ab"))
        for size in range(3)
        for chosen in combinations(range(len(rules)), size)
        if chosen <= tuple(sorted(mirror[k] for k in chosen))
    ]


# The program sets the differential tests read, by name: a builder, called
# for each use, and the one operator whose semantics read the set, or None
# where every semantics does. The fired-atom tables are made for the
# deterministic operator's least-fixpoint loops.
SCOPE = {
    "programs": (lambda: PROGRAMS, None),
    "fired-atom-tables": (lambda: list(fired_atom_tables()), OperatorKind.DMT_DET),
    "three-valued": (lambda: plain_corpus() + plain_programs(range(1, 5), range(8)), None),
    "reduct": (reduct_programs, None),
    "exhaustive": (exhaustive_programs, None),
}
