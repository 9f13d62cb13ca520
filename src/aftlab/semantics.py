"""Fixpoint semantics by exhaustive enumeration: plain and stable fixpoints,
deterministic Kripke-Kleene and well-founded fixpoints, here-and-there pairs,
semi-equilibrium models, three-valued stable models via the GL transformation,
and GZ answer sets via the reduct.

Every solver is a brute-force sweep over the 3^n consistent pairs (or the 2^n
total interpretations); n is bounded by the atom cap. The sweeps of the
four-valued operators iterate masks and test membership on the fired heads
(`operators.contains`, `operators.smyth_below`); the other operators' sweeps
rely on their memoized values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from . import operators as ops, program as prog
from .lattice import (
    AftlabError,
    ApproxPair,
    AtomSet,
    AtomUniverse,
    NdSet,
    gap,
    leq_i,
    leq_t,
    masks_below_t,
    smyth_leq,
)
from .operators import OperatorKind
from .program import Program, ProgramClassError


class WellFoundedAnomalyError(AftlabError):
    """Raised when no unique information-least stable fixpoint exists."""

    def __init__(self, pairs: tuple[ApproxPair, ...]):
        super().__init__(f"no unique information-least stable fixpoint; minimal ones: {pairs}")
        self.pairs = pairs


def _consistent_pairs(p: Program, max_atoms: int | None) -> list[ApproxPair]:
    return list(p.universe.consistent_pairs(max_atoms))


def fixpoints(kind: OperatorKind, p: Program, max_atoms: int | None = None) -> list[ApproxPair]:
    """Consistent pairs (x, y) with x in the lower and y in the upper set of
    the operator at (x, y)."""
    p.compile(max_atoms)
    ops.check_kind_applicable(kind, p)
    u = p.universe
    if kind in ops.FOUR_VALUED:
        return [
            u.pair(xm, ym)
            for xm, ym in u.consistent_masks(max_atoms)
            if ops.contains(p, xm, ym, xm) and ops.contains(p, xm, ym, ym, upper=True)
        ]
    out = []
    for i in _consistent_pairs(p, max_atoms):
        value = ops.apply(kind, p, i)
        if i.lower in value.lower_set and i.upper in value.upper_set:
            out.append(i)
    return out


def lower_candidates(kind: OperatorKind, p: Program, y: AtomSet) -> Iterator[AtomSet]:
    if ops.consistent_only(kind):
        return p.universe.interval(frozenset(), y)
    return p.universe.subsets()


def upper_candidates(kind: OperatorKind, p: Program, x: AtomSet) -> Iterator[AtomSet]:
    if ops.consistent_only(kind):
        return p.universe.interval(x, p.universe.full())
    return p.universe.subsets()


def minimal_sets(sets: Iterable[AtomSet]) -> NdSet:
    collected = frozenset(sets)
    return frozenset(s for s in collected if not any(t < s for t in collected))


def _minimal_masks(u: AtomUniverse, masks: Iterable[int]) -> NdSet:
    """The minimal sets among masks given in increasing order: a proper
    submask is a smaller number, so it comes first."""
    kept: list[int] = []
    for m in masks:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return frozenset(u.unmask(m) for m in kept)


def complete_lower_stable(kind: OperatorKind, p: Program, y: AtomSet) -> NdSet:
    """Minimal x with x a member of the lower operator at (x, y).

    Candidates range over the operator's domain: everything for the total
    four-valued operator, subsets of y for the interval-based ones.
    """
    ops.check_kind_applicable(kind, p)
    if kind in ops.FOUR_VALUED:
        u = p.universe
        ym = u.mask(y)
        return _minimal_masks(u, (xm for xm in range(1 << len(u)) if ops.contains(p, xm, ym, xm)))
    return minimal_sets(
        x
        for x in lower_candidates(kind, p, y)
        if x in ops.apply(kind, p, ApproxPair(x, y)).lower_set
    )


def complete_upper_stable(kind: OperatorKind, p: Program, x: AtomSet) -> NdSet:
    ops.check_kind_applicable(kind, p)
    if kind in ops.FOUR_VALUED:
        u = p.universe
        xm = u.mask(x)
        return _minimal_masks(u, (ym for ym in range(1 << len(u)) if ops.contains(p, xm, ym, ym, upper=True)))
    return minimal_sets(
        y
        for y in upper_candidates(kind, p, x)
        if y in ops.apply(kind, p, ApproxPair(x, y)).upper_set
    )


def stable_fixpoints(kind: OperatorKind, p: Program, max_atoms: int | None = None) -> list[ApproxPair]:
    """Consistent pairs (x, y) with x among the complete lower stable values
    for y and y among the complete upper stable values for x."""
    p.compile(max_atoms)
    ops.check_kind_applicable(kind, p)
    lower_cache: dict[AtomSet, NdSet] = {}
    upper_cache: dict[AtomSet, NdSet] = {}
    out = []
    for i in _consistent_pairs(p, max_atoms):
        if i.upper not in lower_cache:
            lower_cache[i.upper] = complete_lower_stable(kind, p, i.upper)
        if i.lower not in upper_cache:
            upper_cache[i.lower] = complete_upper_stable(kind, p, i.lower)
        if i.lower in lower_cache[i.upper] and i.upper in upper_cache[i.lower]:
            out.append(i)
    return out


def total_stable_fixpoints(kind: OperatorKind, p: Program, max_atoms: int | None = None) -> list[AtomSet]:
    return [i.lower for i in stable_fixpoints(kind, p, max_atoms) if i.is_total]


# ---------------------------------------------------------------------------
# Deterministic interval operator: Kripke-Kleene, stable, well-founded
# ---------------------------------------------------------------------------


def kk_fixpoint_det(p: Program) -> ApproxPair:
    """Information-least fixpoint of the deterministic interval operator,
    reached by iterating from the least precise pair."""
    pair = ApproxPair(frozenset(), p.universe.full())
    while True:
        nxt = ops.dmt_det(p, pair)
        if nxt == pair:
            return pair
        pair = nxt


def _lfp_det_lower(p: Program, y: AtomSet) -> AtomSet:
    w: AtomSet = frozenset()
    while True:
        nxt = ops.det_lower(p, w, y)
        if nxt == w:
            return w
        w = nxt


def _lfp_det_upper(p: Program, x: AtomSet) -> AtomSet | None:
    """Least fixpoint of z -> upper(x, z) over the supersets of x, where the
    map is defined; None when no least fixpoint exists there."""
    fixed = [z for z in p.universe.interval(x, p.universe.full()) if ops.det_upper(p, x, z) == z]
    least = [z for z in fixed if all(z <= other for other in fixed)]
    return least[0] if least else None


def det_stable_fixpoints(p: Program, max_atoms: int | None = None) -> list[ApproxPair]:
    """Stable pairs of the deterministic interval operator, via least
    fixpoints of its frozen-side maps."""
    p.compile(max_atoms)
    ops.check_kind_applicable(OperatorKind.DMT_DET, p)
    out = []
    lower_cache: dict[AtomSet, AtomSet] = {}
    upper_cache: dict[AtomSet, AtomSet | None] = {}
    for i in _consistent_pairs(p, max_atoms):
        if i.upper not in lower_cache:
            lower_cache[i.upper] = _lfp_det_lower(p, i.upper)
        if lower_cache[i.upper] != i.lower:
            continue
        if i.lower not in upper_cache:
            upper_cache[i.lower] = _lfp_det_upper(p, i.lower)
        if upper_cache[i.lower] == i.upper:
            out.append(i)
    return out


def wf_fixpoint_det(p: Program, max_atoms: int | None = None) -> ApproxPair:
    """Information-least deterministic stable fixpoint."""
    stable = det_stable_fixpoints(p, max_atoms)
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
    cls = p.compile().classification
    if cls.shape == prog.SHAPE_GENERAL or cls.has_aggregates:
        raise ProgramClassError(f"{what} needs a disjunctively normal aggregate-free program")


def ht_models_program(p: Program, max_atoms: int | None = None) -> list[ApproxPair]:
    """Pairs (x, y) satisfying every rule under here-and-there satisfaction:
    the models (x, y) of p's GL transformation at (y, y), that is, every rule
    has pos within x and neg outside y imply that the head meets x, and pos
    within y and neg outside y imply that the head meets y."""
    rules = p.compile(max_atoms).rules
    _require_disjunctively_normal_aggregate_free(p, "HT model enumeration")
    u = p.universe
    return [u.pair(xm, ym) for xm, ym in u.consistent_masks(max_atoms) if _gl_model(rules, ym, ym, xm, ym)]


def ht_pairs(kind: OperatorKind, p: Program, max_atoms: int | None = None) -> list[ApproxPair]:
    """Algebraic HT pairs: y closed under the base operator (in the Smyth
    sense) and x covering the operator's lower value.

    y is closed iff some member of ic(y), the hitting sets of hd(y), lies
    within y, that is iff y meets every head of hd(y)."""
    p.compile(max_atoms)
    ops.check_kind_applicable(kind, p)
    u = p.universe
    closed = [all(h & y for h in ops.hd(p, y)) for y in u.subsets()]
    out = []
    for xm, ym in u.consistent_masks(max_atoms):
        if not closed[ym]:
            continue
        if kind in ops.FOUR_VALUED:
            if ops.smyth_below(p, xm, ym, xm):
                out.append(u.pair(xm, ym))
            continue
        i = u.pair(xm, ym)
        if smyth_leq(ops.apply(kind, p, i).lower_set, frozenset((i.lower,))):
            out.append(i)
    return out


def min_t(pairs: Iterable[ApproxPair]) -> list[ApproxPair]:
    collected = list(pairs)
    return [a for a in collected if not any(b != a and leq_t(b, a) for b in collected)]


def mc(pairs: Iterable[ApproxPair]) -> list[ApproxPair]:
    """Maximal canonical selection: drop pairs whose gap strictly contains
    another pair's gap."""
    collected = list(pairs)
    return [a for a in collected if not any(gap(b) < gap(a) for b in collected)]


def seq(kind: OperatorKind, p: Program, max_atoms: int | None = None) -> list[ApproxPair]:
    """Semi-equilibrium models: maximal canonical truth-minimal HT pairs."""
    return mc(min_t(ht_pairs(kind, p, max_atoms)))


def seq_no_difference(kind: OperatorKind, p: Program, max_atoms: int | None = None) -> list[ApproxPair]:
    """Difference-free approximation: information-maximal truth-minimal HT
    pairs; always a superset of the semi-equilibrium models."""
    minimal = min_t(ht_pairs(kind, p, max_atoms))
    return [a for a in minimal if not any(b != a and leq_i(a, b) for b in minimal)]


# ---------------------------------------------------------------------------
# Three-valued stable models and GZ answer sets
# ---------------------------------------------------------------------------


def is_model(p: Program, i: ApproxPair, j: ApproxPair | None = None) -> bool:
    """Whether j (by default i) is a three-valued model of p's GL
    transformation at i (`program.gl_transform`). For j = (x_j, y_j) and
    i = (x_i, y_i), every rule has pos within x_j and neg outside y_i imply
    that the head meets x_j, and pos within y_j and neg outside x_i imply that
    the head meets y_j."""
    _require_disjunctively_normal_aggregate_free(p, "the three-valued model test")
    u = p.universe
    xi, yi = u.mask(i.lower), u.mask(i.upper)
    xj, yj = (xi, yi) if j is None else (u.mask(j.lower), u.mask(j.upper))
    return _gl_model(p.compile().rules, xi, yi, xj, yj)


def _gl_model(rules: Iterable[prog.CompiledRule], xi: int, yi: int, xj: int, yj: int) -> bool:
    return all(
        (r.pos & ~xj or r.neg & yi or r.head_mask & xj) and (r.pos & ~yj or r.neg & xi or r.head_mask & yj)
        for r in rules
    )


def _is_stable_model_of(p: Program, xm: int, ym: int) -> bool:
    """Whether the consistent pair (xm, ym) is a model of p's GL transformation
    at itself and no other consistent pair below it in the truth order is."""
    rules = p.compile().rules
    return _gl_model(rules, xm, ym, xm, ym) and not any(
        (a != xm or b != ym) and _gl_model(rules, xm, ym, a, b) for a, b in masks_below_t(xm, ym)
    )


def three_valued_stable(p: Program, max_atoms: int | None = None) -> list[ApproxPair]:
    """Truth-minimal models of the program's GL transformation at each pair."""
    p.compile(max_atoms)
    _require_disjunctively_normal_aggregate_free(p, "three-valued stable semantics")
    u = p.universe
    return [u.pair(xm, ym) for xm, ym in u.consistent_masks(max_atoms) if _is_stable_model_of(p, xm, ym)]


def gz_answer_sets(p: Program, max_atoms: int | None = None) -> list[AtomSet]:
    """Sets x whose total pair is an answer set of the GZ reduct at x; these
    are the total stable fixpoints of the `ic-triv` operator."""
    cls = p.compile(max_atoms).classification
    if cls.shape == prog.SHAPE_GENERAL:
        raise ProgramClassError("GZ answer sets need conjunctive rule bodies")
    if cls.has_negated_aggregates:
        raise ProgramClassError("GZ answer sets do not allow negated aggregate atoms")
    u = p.universe
    out = []
    for x in u.subsets():
        reduct = prog.gz_reduct(p, x)
        reduct.compile(max_atoms)  # same universe as p, so under the same cap
        xm = u.mask(x)
        if _is_stable_model_of(reduct, xm, xm):
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# Uniform dispatch for the CLI
# ---------------------------------------------------------------------------

SEMANTICS_NAMES = (
    "fixpoints",
    "stable",
    "total-stable",
    "kk",
    "wf",
    "ht",
    "seq",
    "seq-approx",
    "three-valued-stable",
    "gz-answer-sets",
)

OPERATOR_BASED = ("fixpoints", "stable", "total-stable", "ht", "seq", "seq-approx")
DETERMINISTIC = ("kk", "wf")


@dataclass
class SemanticsResult:
    kind: str
    models: tuple[ApproxPair, ...]
    operator: str | None
    program_digest: str
    universe: tuple[str, ...]


def run_semantics(
    name: str,
    p: Program,
    kind: OperatorKind | None = None,
    max_atoms: int | None = None,
) -> SemanticsResult:
    """Run one named semantics; atom sets are reported as total pairs."""
    p.compile(max_atoms)
    if name in OPERATOR_BASED and kind is None:
        raise AftlabError(f"semantics {name!r} needs an operator")
    if name == "fixpoints":
        models = tuple(fixpoints(kind, p, max_atoms))
    elif name == "stable":
        models = tuple(stable_fixpoints(kind, p, max_atoms))
    elif name == "total-stable":
        models = tuple(ApproxPair(x, x) for x in total_stable_fixpoints(kind, p, max_atoms))
    elif name == "kk":
        models = (kk_fixpoint_det(p),)
    elif name == "wf":
        models = (wf_fixpoint_det(p, max_atoms),)
    elif name == "ht":
        models = tuple(ht_pairs(kind, p, max_atoms))
    elif name == "seq":
        models = tuple(seq(kind, p, max_atoms))
    elif name == "seq-approx":
        models = tuple(seq_no_difference(kind, p, max_atoms))
    elif name == "three-valued-stable":
        models = tuple(three_valued_stable(p, max_atoms))
    elif name == "gz-answer-sets":
        models = tuple(ApproxPair(x, x) for x in gz_answer_sets(p, max_atoms))
    else:
        raise AftlabError(f"unknown semantics {name!r}")
    if name in DETERMINISTIC:
        operator = OperatorKind.DMT_DET.value
    else:
        operator = kind.value if kind is not None else None
    key = p.universe.pair_key
    return SemanticsResult(
        kind=name,
        models=tuple(sorted(models, key=key)),
        operator=operator,
        program_digest=prog.program_hash(p),
        universe=p.universe.atoms,
    )
