"""Fixpoint semantics by exhaustive enumeration: plain and stable fixpoints,
deterministic Kripke-Kleene and well-founded fixpoints, here-and-there pairs,
semi-equilibrium models, three-valued stable models (the truth-minimal models
of the GL transformation), and GZ answer sets as minimal models of the reduct.

Every solver decides each of the 3^n consistent pairs (or the 2^n total
interpretations); n is bounded by the atom cap. The fixpoint, HT and stable
sweeps of every operator, the truth-minimal HT pairs of `seq` and
`seq-approx`, and the three-valued stable models, which are the pairs of the
minimal planes of `ic-triv`, AND bit planes, one bit per consistent pair,
built from the two planes of each rule body and kept per program and distinct
set of planes (`operators.pair_planes`). The set bits are read as sorted pair
keys x << n | y (`lattice.DigitPlanes.keys`), which the laws compare and only
the public sweeps decode (`_pairs`). The complete stable values of the
four-valued operators, which range over the inconsistent pairs too, read rows
of one bit per set instead: the same body readings with x fixed, one row per
set giving the lower and the upper value alike, kept per program and key
(`operators.stable_rows`). So do GZ answer sets, of no operator: one model row
per program, one reduct row per model. The planes and rows refuse a program
outside the operator's class, so their sweeps check nothing of their own.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Callable, Iterable

from . import four, operators as ops, program as prog
from .lattice import (
    AftlabError,
    ApproxPair,
    AtomSet,
    InconsistentPairError,
    NdSet,
    _meets,
    _within,
    bit_indices,
    digit_planes,
    gap,
    leq_t,
    row_columns,
)
from .operators import OperatorKind
from .program import Program, ProgramClassError
from .record import record


def _pairs(p: Program, keys: Iterable[int]) -> list[ApproxPair]:
    """The pairs (x, y) of the keys x << n | y, in the keys' order."""
    u, n = p.universe, len(p.universe)
    low = (1 << n) - 1
    return [u.pair(k >> n, k & low) for k in keys]


def _plane_keys(planes: ops.PairPlanes, plane: int, truth_minimal: bool) -> list[int]:
    """The sorted keys of the pairs marked in `plane`, or (truth_minimal) of
    its truth-minimal ones (`lattice.DigitPlanes.minimal_t`)."""
    digits = planes.digits
    return digits.keys(digits.minimal_t(plane) if truth_minimal else plane)


def _fixpoint_keys(kind: OperatorKind, p: Program, truth_minimal: bool = False) -> list[int]:
    planes = ops.pair_planes(kind, p)
    return _plane_keys(planes, planes.lower & planes.upper, truth_minimal)


def fixpoints(kind: OperatorKind, p: Program) -> list[ApproxPair]:
    """Consistent pairs (x, y) with x in the lower and y in the upper set of
    the operator at (x, y): the AND of its lower and upper planes
    (`operators.PairPlanes`)."""
    return _pairs(p, _fixpoint_keys(kind, p))


def minimal_sets(sets: Iterable[AtomSet]) -> NdSet:
    collected = frozenset(sets)
    return frozenset(s for s in collected if not any(t < s for t in collected))


def complete_lower_stable(kind: OperatorKind, p: Program, y: AtomSet) -> NdSet:
    """Minimal x with x a member of the lower operator at (x, y): the x of
    the keys with y of a consistent-only operator's lower `minimal` plane,
    or a four-valued operator's row at y (`operators.stable_rows`)."""
    u, n = p.universe, len(p.universe)
    if not ops.consistent_only(kind):
        return frozenset(map(u.unmask, ops.stable_rows(kind, p)(u.mask(y))))
    planes, ym = ops.pair_planes(kind, p), u.mask(y)
    return frozenset(u.unmask(k >> n) for k in planes.digits.keys(planes.minimal()[0]) if k & (1 << n) - 1 == ym)


def complete_upper_stable(kind: OperatorKind, p: Program, x: AtomSet) -> NdSet:
    """Minimal y with y a member of the upper operator at (x, y): the y of
    the keys with x of the upper `minimal` plane, or the row at x, which
    gives the lower and the upper value of a four-valued operator alike."""
    u, n = p.universe, len(p.universe)
    if not ops.consistent_only(kind):
        return frozenset(map(u.unmask, ops.stable_rows(kind, p)(u.mask(x))))
    planes, xm = ops.pair_planes(kind, p), u.mask(x)
    return frozenset(u.unmask(k & (1 << n) - 1) for k in planes.digits.keys(planes.minimal()[1]) if k >> n == xm)


def _minimal_keys(planes: ops.PairPlanes) -> list[int]:
    """The sorted keys of the pairs (x, y) with x a minimal lower member below
    y and y a minimal upper member above x: the AND of the `minimal` planes."""
    lower, upper = planes.minimal()
    return planes.digits.keys(lower & upper)


def _stable_keys(kind: OperatorKind, p: Program) -> list[int]:
    if ops.consistent_only(kind):
        return _minimal_keys(ops.pair_planes(kind, p))
    value, n = ops.stable_rows(kind, p), len(p.universe)
    return [xm << n | ym for xm in range(1 << n) for ym in value(xm) if not xm & ~ym and xm in value(ym)]


def stable_fixpoints(kind: OperatorKind, p: Program) -> list[ApproxPair]:
    """Consistent pairs (x, y) with x among the complete lower stable values
    for y and y among the complete upper stable values for x; for a
    consistent-only operator, the AND of the planes of both
    (`operators.PairPlanes.minimal`), and for a four-valued one the pairs
    with x within y, x in C(y) and y in C(x), C the value of its rows
    (`operators.stable_rows`)."""
    return _pairs(p, _stable_keys(kind, p))


def total_stable_fixpoints(kind: OperatorKind, p: Program) -> list[AtomSet]:
    """The sets x of the stable keys x << n | y with x = y."""
    n = len(p.universe)
    return [p.universe.unmask(k >> n) for k in _stable_keys(kind, p) if k >> n == k & (1 << n) - 1]


# ---------------------------------------------------------------------------
# Deterministic interval operator: Kripke-Kleene, stable, well-founded
# ---------------------------------------------------------------------------


def kk_fixpoint_det(p: Program) -> ApproxPair:
    """Information-least fixpoint of the deterministic interval operator, the
    limit of its iteration from the least precise pair (∅, A). Each iterate
    lies <=_i below every fixpoint, since the operator is <=_i-monotone, and
    the limit is a fixpoint, so it is (∩x, ∪y) over the fixpoints (x, y) of
    the `dmt-det` planes (`operators.PairPlanes`): atom i is in x iff every
    fixpoint has digit 2 there, and in y iff some fixpoint has a digit
    other than 0."""
    planes = ops.pair_planes(ops.DMT_DET, p)
    fixed, digits = planes.lower & planes.upper, planes.digits
    xm = sum(1 << i for i, d2 in enumerate(digits.d2) if not fixed & ~d2)
    ym = sum(1 << i for i, d0 in enumerate(digits.d0) if fixed & ~d0)
    return p.universe.pair(xm, ym)


def det_stable_fixpoints(p: Program) -> list[ApproxPair]:
    """Stable pairs (x, y) of the deterministic interval operator: x is the
    least fixpoint of w -> the atoms fired everywhere in [w, y] and y the
    least fixpoint of z -> the atoms fired somewhere in [x, z] over the
    supersets of x. At such pairs each least
    fixpoint is the one minimal fixpoint, so these are the stable fixpoints of
    the operator lifted to singletons (README "Programs are compiled once")."""
    return stable_fixpoints(ops.DMT_DET, p)


def wf_fixpoint_det(p: Program) -> ApproxPair:
    """Information-least deterministic stable fixpoint: (∩x, ∪y) over the
    stable keys x << n | y of `dmt-det`, the AND of their x masks and the OR
    of their y masks. `dmt-det` is <=_i-monotone on the consistent pairs, so
    its well-founded fixpoint is a stable fixpoint <=_i every other
    (Denecker, Marek and Truszczyński 2000, 2004), and so it is that meet.
    A meet that is not stable, which the theorem rules out, is refused."""
    keys, n = _stable_keys(ops.DMT_DET, p), len(p.universe)
    low = (1 << n) - 1
    xm, ym = reduce(lambda a, k: a & k >> n, keys, low), reduce(or_, [k & low for k in keys], 0)
    if xm << n | ym not in keys:
        raise AftlabError("program has no information-least deterministic stable fixpoint")
    return p.universe.pair(xm, ym)


# ---------------------------------------------------------------------------
# Here-and-there pairs and semi-equilibrium models
# ---------------------------------------------------------------------------


def _require_disjunctively_normal_aggregate_free(p: Program, what: str) -> None:
    if not p.compile().classification.plain:
        raise ProgramClassError(f"{what} needs a disjunctively normal aggregate-free program")


def ht_models_program(p: Program) -> list[ApproxPair]:
    """Pairs (x, y) satisfying every rule under here-and-there satisfaction
    (Lifschitz, Pearce and Valverde, ACM TOCL 2001), each rule read as the
    formulas body -> head-disjunction (`four.ht_satisfies_rule`) on the digit
    planes, at every consistent pair at once (`four.ht_tables`); the pairs
    where every rule holds are decoded in increasing key order x << n | y,
    `consistent_masks` order (`lattice.DigitPlanes.keys`)."""
    return _pairs(p, _ht_model_keys(p))


def _ht_model_keys(p: Program) -> list[int]:
    _require_disjunctively_normal_aggregate_free(p, "HT model enumeration")
    u, digits = p.universe, digit_planes(len(p.universe))
    models = digits.full
    for r in p.rules:
        body, head = prog.body_formula(r), four.disj(map(four.Atom, r.head))
        (body_y, body_ht), (head_y, head_ht) = four.ht_tables(u, body), four.ht_tables(u, head)
        models &= (~body_ht | head_ht) & (~body_y | head_y)
    return digits.keys(models)


def ht_pairs(kind: OperatorKind, p: Program) -> list[ApproxPair]:
    """Algebraic HT pairs: y closed under the base operator (in the Smyth
    sense) and x covering the operator's lower value, the AND of the
    operator's `closed` and `smyth` planes (`operators.PairPlanes`). y is
    closed iff some member of ic(y), the hitting sets of hd(y), lies within
    y, that is iff y misses the head of no rule fired at y."""
    return _pairs(p, _ht_keys(kind, p, False))


def _ht_keys(kind: OperatorKind, p: Program, truth_minimal: bool) -> list[int]:
    """The keys of the HT pairs, or (truth_minimal) only of the
    truth-minimal ones, those of `min_t(ht_pairs(kind, p))`."""
    planes = ops.pair_planes(kind, p)
    return _plane_keys(planes, planes.smyth & planes.closed, truth_minimal)


def min_t(pairs: Iterable[ApproxPair]) -> list[ApproxPair]:
    """The truth-minimal pairs, in input order. A pair below another has fewer
    atoms, so visited by size each is compared only with the minimal ones kept."""
    collected = list(pairs)
    kept: list[int] = []
    for k in sorted(range(len(collected)), key=lambda k: len(collected[k].lower) + len(collected[k].upper)):
        a = collected[k]
        if not any(collected[j] != a and leq_t(collected[j], a) for j in kept):
            kept.append(k)
    return [collected[k] for k in sorted(kept)]


def mc(pairs: Iterable[ApproxPair]) -> list[ApproxPair]:
    """Maximal canonical selection: drop pairs whose gap strictly contains
    another pair's gap."""
    collected = list(pairs)
    return [a for a in collected if not any(gap(b) < gap(a) for b in collected)]


def _seq_keys(kind: OperatorKind, p: Program) -> list[int]:
    """`mc` on the keys of the truth-minimal HT pairs: a key is dropped when
    its gap y & ~x strictly contains another's."""
    n = len(p.universe)
    low = (1 << n) - 1
    keys = _ht_keys(kind, p, True)
    gaps = [k & low & ~(k >> n) for k in keys]
    return [k for k, g in zip(keys, gaps) if not any(h != g and not h & ~g for h in gaps)]


def seq(kind: OperatorKind, p: Program) -> list[ApproxPair]:
    """Semi-equilibrium models: maximal canonical truth-minimal HT pairs."""
    return _pairs(p, _seq_keys(kind, p))


def seq_no_difference(kind: OperatorKind, p: Program) -> list[ApproxPair]:
    """Difference-free approximation: information-maximal truth-minimal HT
    pairs; always a superset of the semi-equilibrium models. A key
    x << n | y is dropped when another, w << n | z, has x within w and z
    within y."""
    n, keys = len(p.universe), _ht_keys(kind, p, True)
    low = (1 << n) - 1
    return _pairs(p, [k for k in keys if not any(j != k and not k >> n & ~(j >> n) and not j & low & ~k for j in keys)])


# ---------------------------------------------------------------------------
# Three-valued stable models and GZ answer sets
# ---------------------------------------------------------------------------


def is_model(p: Program, i: ApproxPair, j: ApproxPair | None = None) -> bool:
    """Whether j (by default i) is a three-valued model of p's GL
    transformation at i (`program.gl_transform`). For j = (x_j, y_j) and
    i = (x_i, y_i), every rule has pos within x_j and neg outside y_i imply
    that the head meets x_j, and pos within y_j and neg outside x_i imply that
    the head meets y_j. Like the transformation, it needs a consistent i."""
    _require_disjunctively_normal_aggregate_free(p, "the three-valued model test")
    if not i.is_consistent:
        raise InconsistentPairError("the three-valued model test needs a consistent pair")
    u = p.universe
    xi, yi = u.mask(i.lower), u.mask(i.upper)
    xj, yj = (xi, yi) if j is None else (u.mask(j.lower), u.mask(j.upper))
    return all(
        (r.pos & ~xj or r.neg & yi or r.head_mask & xj) and (r.pos & ~yj or r.neg & xi or r.head_mask & yj)
        for r in p.compile().rules
    )


def three_valued_stable(p: Program) -> list[ApproxPair]:
    """Truth-minimal models of the program's GL transformation at each pair.
    These are the pairs of the minimal planes of `ic-triv`
    (`operators.PairPlanes.minimal`): x a minimal model of the reduct with
    negation read at y, and y a minimal model among the supersets of x of the
    reduct with negation read at x (README "Programs are compiled once")."""
    _require_disjunctively_normal_aggregate_free(p, "three-valued stable semantics")
    return _pairs(p, _minimal_keys(ops.pair_planes(ops.IC_TRIV, p)))


def gz_answer_sets(p: Program) -> list[AtomSet]:
    """Sets x whose total pair is an answer set of the GZ reduct at x; these
    are the total stable fixpoints of the `ic-triv` operator.

    The reduct at x (`program.gz_reduct`) keeps the rules whose neg misses x
    and whose aggregates hold at x, with pos and the x-true conditions of the
    aggregates as body; (x, x) is a stable model of it iff x is a minimal
    model of it, as at (x, x) the GL test of a rule reads one set. All sets
    are read at once, as rows of one bit per set, by the readers of
    `operators.member_row`. x is a model of its reduct iff it is a classical
    model of p, since the conditions added lie within x: the AND over the
    rules of body row implying head row. At each such x, the rules whose
    body holds at x are those of the reduct that can fire within x, and x is
    an answer set iff no proper subset of x satisfies all their clauses."""
    compiled = p.compile()
    if compiled.classification.shape == prog.SHAPE_GENERAL:
        raise ProgramClassError("GZ answer sets need conjunctive rule bodies")
    if compiled.classification.has_negated_aggregates:
        raise ProgramClassError("GZ answer sets do not allow negated aggregate atoms")
    u = p.universe
    (full, without, inside), every = row_columns(len(u)), (1 << len(u)) - 1
    models, rules = full, []
    for r in compiled.rules:
        body, head = ops._body_planes(u, r, full, inside, inside)[0], _meets(r.head_mask, inside)
        models &= head | ~body
        rules.append((body, head, _within(r.pos, inside, full), [c for a in r.aggs for c, _ in a.entries]))
    out = []
    for xm in bit_indices(models):
        left = _within(every & ~xm, without, full)
        for body, head, pos, conds in rules:
            if body >> xm & 1:
                left &= head | ~_within(reduce(or_, [c for c in conds if not c & ~xm], 0), inside, pos)
        if left == 1 << xm:
            out.append(u.unmask(xm))
    return out


# ---------------------------------------------------------------------------
# Uniform dispatch: the one place that decides which operator a semantics takes
# ---------------------------------------------------------------------------


class SemanticsChoiceError(AftlabError):
    """An unknown semantics, or an operator choice the semantics does not take."""


ANY_OPERATOR, DETERMINISTIC_OPERATOR, NO_OPERATOR = "any", "dmt-det", "none"

# Each semantics: the operator it takes and its run. The runs look the sweeps
# up in this module when called, so a sweep patched here is the one that runs.
SEMANTICS: dict[str, tuple[str, Callable[[Program, OperatorKind | None], Iterable[ApproxPair]]]] = {
    "fixpoints": (ANY_OPERATOR, lambda p, kind: fixpoints(kind, p)),
    "stable": (ANY_OPERATOR, lambda p, kind: stable_fixpoints(kind, p)),
    "total-stable": (ANY_OPERATOR, lambda p, kind: (ApproxPair(x, x) for x in total_stable_fixpoints(kind, p))),
    "kk": (DETERMINISTIC_OPERATOR, lambda p, kind: (kk_fixpoint_det(p),)),
    "wf": (DETERMINISTIC_OPERATOR, lambda p, kind: (wf_fixpoint_det(p),)),
    "ht": (ANY_OPERATOR, lambda p, kind: ht_pairs(kind, p)),
    "seq": (ANY_OPERATOR, lambda p, kind: seq(kind, p)),
    "seq-approx": (ANY_OPERATOR, lambda p, kind: seq_no_difference(kind, p)),
    "three-valued-stable": (NO_OPERATOR, lambda p, kind: three_valued_stable(p)),
    "gz-answer-sets": (NO_OPERATOR, lambda p, kind: (ApproxPair(x, x) for x in gz_answer_sets(p))),
}

SEMANTICS_NAMES = tuple(SEMANTICS)


@record
class SemanticsResult:
    kind: str
    models: tuple[ApproxPair, ...]
    operator: str | None
    program_digest: str
    universe: tuple[str, ...]


def run_semantics(name: str, p: Program, kind: OperatorKind | None = None) -> SemanticsResult:
    """Run one named semantics; atom sets are reported as total pairs.

    Kripke-Kleene and well-founded run the deterministic interval operator,
    implied when no operator is given. A wrong choice of name or operator
    raises SemanticsChoiceError before the program is looked at."""
    if name not in SEMANTICS:
        raise SemanticsChoiceError(f"unknown semantics {name!r}")
    takes, run = SEMANTICS[name]
    if takes == ANY_OPERATOR and kind is None:
        raise SemanticsChoiceError(f"semantics {name!r} needs --operator")
    if takes == DETERMINISTIC_OPERATOR:
        if kind not in (None, ops.DMT_DET):
            raise SemanticsChoiceError(f"semantics {name!r} only works with --operator dmt-det")
        kind = ops.DMT_DET
    if takes == NO_OPERATOR and kind is not None:
        raise SemanticsChoiceError(f"semantics {name!r} does not take an operator")
    return SemanticsResult(
        kind=name,
        models=tuple(run(p, kind)),
        operator=kind.value if kind is not None else None,
        program_digest=prog.program_hash(p),
        universe=p.universe.atoms,
    )
