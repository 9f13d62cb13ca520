"""Fixpoint semantics by exhaustive enumeration: plain and stable fixpoints,
deterministic Kripke-Kleene and well-founded fixpoints, here-and-there pairs,
semi-equilibrium models, three-valued stable models (the truth-minimal models
of the GL transformation), and GZ answer sets as minimal models of the reduct.

Every solver decides each of the 3^n consistent pairs (or the 2^n total
interpretations); n is bounded by the atom cap. The fixpoint, HT and stable
sweeps of every operator, the truth-minimal HT pairs of `seq` and
`seq-approx`, and the three-valued stable models, which are the pairs of
the minimal planes of `ic-triv`, AND bit planes, one bit per
consistent pair, built from the two planes of each rule body and kept per
program and distinct set of planes (`operators.pair_planes`), and decode
only the set bits. Only the complete stable values of the four-valued
operators, which range over the inconsistent pairs too, read otherwise: rows
of one bit per set, the same body readings with one side of the pair fixed,
kept per program, side and key (`operators.stable_rows`). Sets are built
only for the models returned. The planes and rows refuse a program outside
the operator's class, so the sweeps check nothing of their own.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from . import operators as ops, program as prog
from .lattice import (
    AftlabError,
    ApproxPair,
    AtomSet,
    InconsistentPairError,
    NdSet,
    gap,
    leq_i,
    leq_t,
    submasks,
)
from .operators import OperatorKind
from .program import Program, ProgramClassError
from .record import record


class WellFoundedAnomalyError(AftlabError):
    """Raised when no unique information-least stable fixpoint exists."""

    def __init__(self, pairs: tuple[ApproxPair, ...]):
        super().__init__(f"no unique information-least stable fixpoint; minimal ones: {pairs}")
        self.pairs = pairs


def fixpoints(kind: OperatorKind, p: Program) -> list[ApproxPair]:
    """Consistent pairs (x, y) with x in the lower and y in the upper set of
    the operator at (x, y): the AND of its lower and upper planes
    (`operators.PairPlanes`)."""
    planes = ops.pair_planes(kind, p)
    return _decode(p, planes, planes.lower & planes.upper)


def _decode(p: Program, planes: ops.PairPlanes, plane: int) -> list[ApproxPair]:
    """The pairs whose bits are set in `plane`, a plane over the pair numbers of `planes`."""
    return [p.universe.pair(xm, ym) for xm, ym in planes.digits.pairs(plane)]


def minimal_sets(sets: Iterable[AtomSet]) -> NdSet:
    collected = frozenset(sets)
    return frozenset(s for s in collected if not any(t < s for t in collected))


def _complete_values(
    kind: OperatorKind, p: Program
) -> tuple[Callable[[int], Sequence[int]], Callable[[int], Sequence[int]]]:
    """The complete lower stable value at the mask y (minimal x with x a
    member of the lower operator at (x, y)) and the complete upper one at the
    mask x, as functions giving the minimal masks in increasing order.

    Candidates range over the operator's domain: the subsets of y (supersets
    of x) for the consistent-only operators, whose values are read from their
    minimal planes (`operators.PairPlanes.minimal`) at each candidate pair's
    number, and every set for the total four-valued ones, whose candidates
    include inconsistent pairs, where the planes say nothing. Those are read
    from rows over all 2^n sets with the other side fixed
    (`operators.stable_rows`); on a plain program they are the minimal models
    of the reduct at the other side. A program outside the operator's class
    is refused, by `operators.pair_planes` or here, before either is read.
    """
    if ops.consistent_only(kind):
        planes = ops.pair_planes(kind, p)
        lower, upper = planes.minimal()
        number, full = planes.digits.number, (1 << len(p.universe)) - 1
        return (
            lambda ym: [xm for xm in submasks(ym) if lower >> number(xm, ym) & 1],
            lambda xm: [xm | t for t in submasks(full & ~xm) if upper >> number(xm, xm | t) & 1],
        )
    ops.check_kind_applicable(kind, p)
    return ops.stable_rows(p)


def complete_lower_stable(kind: OperatorKind, p: Program, y: AtomSet) -> NdSet:
    """Minimal x with x a member of the lower operator at (x, y)."""
    u = p.universe
    return frozenset(map(u.unmask, _complete_values(kind, p)[0](u.mask(y))))


def complete_upper_stable(kind: OperatorKind, p: Program, x: AtomSet) -> NdSet:
    """Minimal y with y a member of the upper operator at (x, y)."""
    u = p.universe
    return frozenset(map(u.unmask, _complete_values(kind, p)[1](u.mask(x))))


def _minimal_pairs(p: Program, planes: ops.PairPlanes) -> list[ApproxPair]:
    """The pairs (x, y) with x among the minimal lower members below y and y
    among the minimal upper members above x: the AND of the planes'
    `minimal` planes, decoded."""
    lower, upper = planes.minimal()
    return _decode(p, planes, lower & upper)


def stable_fixpoints(kind: OperatorKind, p: Program) -> list[ApproxPair]:
    """Consistent pairs (x, y) with x among the complete lower stable values
    for y and y among the complete upper stable values for x; for a
    consistent-only operator, the AND of the planes of both
    (`operators.PairPlanes.minimal`)."""
    if ops.consistent_only(kind):
        return _minimal_pairs(p, ops.pair_planes(kind, p))
    lower_value, upper_value = _complete_values(kind, p)
    u = p.universe
    return [
        u.pair(xm, ym)
        for xm in range(1 << len(u))
        for ym in upper_value(xm)
        if not xm & ~ym and xm in lower_value(ym)
    ]


def total_stable_fixpoints(kind: OperatorKind, p: Program) -> list[AtomSet]:
    return [i.lower for i in stable_fixpoints(kind, p) if i.is_total]


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
    planes = ops.pair_planes(OperatorKind.DMT_DET, p)
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
    return stable_fixpoints(OperatorKind.DMT_DET, p)


def wf_fixpoint_det(p: Program) -> ApproxPair:
    """Information-least deterministic stable fixpoint."""
    stable = det_stable_fixpoints(p)
    if not stable:
        raise AftlabError("program has no deterministic stable fixpoint")
    least = [i for i in stable if all(leq_i(i, j) for j in stable)]
    if len(least) == 1:
        return least[0]
    minimal = tuple(i for i in stable if not any(leq_i(j, i) and j != i for j in stable))
    raise WellFoundedAnomalyError(minimal)


# ---------------------------------------------------------------------------
# Here-and-there pairs and semi-equilibrium models
# ---------------------------------------------------------------------------


def _require_disjunctively_normal_aggregate_free(p: Program, what: str) -> None:
    if not p.compile().classification.plain:
        raise ProgramClassError(f"{what} needs a disjunctively normal aggregate-free program")


def ht_models_program(p: Program) -> list[ApproxPair]:
    """Pairs (x, y) satisfying every rule under here-and-there satisfaction:
    the models (x, y) of p's GL transformation at (y, y), that is, every rule
    has pos within x and neg outside y imply that the head meets x, and pos
    within y and neg outside y imply that the head meets y."""
    rules = p.compile().rules
    _require_disjunctively_normal_aggregate_free(p, "HT model enumeration")
    u = p.universe
    return [u.pair(xm, ym) for xm, ym in u.consistent_masks() if _gl_model(rules, ym, ym, xm, ym)]


def ht_pairs(kind: OperatorKind, p: Program) -> list[ApproxPair]:
    """Algebraic HT pairs: y closed under the base operator (in the Smyth
    sense) and x covering the operator's lower value, the AND of the
    operator's `closed` and `smyth` planes (`operators.PairPlanes`). y is
    closed iff some member of ic(y), the hitting sets of hd(y), lies within
    y, that is iff y misses the head of no rule fired at y."""
    return _ht_plane_pairs(kind, p, False)


def _ht_plane_pairs(kind: OperatorKind, p: Program, truth_minimal: bool) -> list[ApproxPair]:
    """The HT pairs, or (truth_minimal) only the truth-minimal ones,
    `min_t(ht_pairs(kind, p))`, read on the plane
    (`lattice.DigitPlanes.minimal_t`), so only those are decoded."""
    planes = ops.pair_planes(kind, p)
    plane = planes.smyth & planes.closed
    return _decode(p, planes, planes.digits.minimal_t(plane) if truth_minimal else plane)


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


def seq(kind: OperatorKind, p: Program) -> list[ApproxPair]:
    """Semi-equilibrium models: maximal canonical truth-minimal HT pairs."""
    return mc(_ht_plane_pairs(kind, p, True))


def seq_no_difference(kind: OperatorKind, p: Program) -> list[ApproxPair]:
    """Difference-free approximation: information-maximal truth-minimal HT
    pairs; always a superset of the semi-equilibrium models."""
    minimal = _ht_plane_pairs(kind, p, True)
    return [a for a in minimal if not any(b != a and leq_i(a, b) for b in minimal)]


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
    return _gl_model(p.compile().rules, xi, yi, xj, yj)


def _gl_model(rules: Iterable[prog.CompiledRule], xi: int, yi: int, xj: int, yj: int) -> bool:
    return all(
        (r.pos & ~xj or r.neg & yi or r.head_mask & xj) and (r.pos & ~yj or r.neg & xi or r.head_mask & yj)
        for r in rules
    )


def three_valued_stable(p: Program) -> list[ApproxPair]:
    """Truth-minimal models of the program's GL transformation at each pair.
    These are the pairs of the minimal planes of `ic-triv`
    (`operators.PairPlanes.minimal`): x a minimal model of the reduct with
    negation read at y, and y a minimal model among the supersets of x of the
    reduct with negation read at x (README "Programs are compiled once")."""
    _require_disjunctively_normal_aggregate_free(p, "three-valued stable semantics")
    return _minimal_pairs(p, ops.pair_planes(OperatorKind.IC_TRIV, p))


def _is_minimal_model(rules: list[tuple[int, int]], xm: int) -> bool:
    """Whether xm is a model of the positive rules, given as (body, head)
    mask pairs, and no proper submask of xm is."""

    def model(s: int) -> bool:
        return all(body & ~s or head & s for body, head in rules)

    return model(xm) and not any(model(s) for s in submasks(xm) if s != xm)


def gz_answer_sets(p: Program) -> list[AtomSet]:
    """Sets x whose total pair is an answer set of the GZ reduct at x; these
    are the total stable fixpoints of the `ic-triv` operator.

    The reduct at x (`program.gz_reduct`) is read as (body, head) mask pairs:
    of the rules whose neg misses x and whose aggregates hold at x, the body
    is pos together with the x-true conditions of the aggregates. (x, x) is a
    stable model of it iff x is a minimal model of those pairs: at (x, x) the
    three-valued GL test of a pair (a, b) is the same test on a and on b."""
    compiled = p.compile()
    if compiled.classification.shape == prog.SHAPE_GENERAL:
        raise ProgramClassError("GZ answer sets need conjunctive rule bodies")
    if compiled.classification.has_negated_aggregates:
        raise ProgramClassError("GZ answer sets do not allow negated aggregate atoms")
    u = p.universe
    out = []
    for xm in range(1 << len(u)):
        reduct = []
        for r in compiled.rules:
            if r.neg & xm or not all(a.holds(xm) for a in r.aggs):
                continue
            body = r.pos
            for a in r.aggs:
                for c in a.conditions:
                    if not c & ~xm:
                        body |= c
            reduct.append((body, r.head_mask))
        if _is_minimal_model(reduct, xm):
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
OPERATOR_BASED = tuple(name for name, (takes, _) in SEMANTICS.items() if takes == ANY_OPERATOR)


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
        if kind not in (None, OperatorKind.DMT_DET):
            raise SemanticsChoiceError(f"semantics {name!r} only works with --operator dmt-det")
        kind = OperatorKind.DMT_DET
    if takes == NO_OPERATOR and kind is not None:
        raise SemanticsChoiceError(f"semantics {name!r} does not take an operator")
    return SemanticsResult(
        kind=name,
        models=tuple(run(p, kind)),
        operator=kind.value if kind is not None else None,
        program_digest=prog.program_hash(p),
        universe=p.universe.atoms,
    )
