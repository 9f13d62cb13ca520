"""`operators.values`, each operator at every pair of its domain in one pass,
against `operators.apply` pair by pair, and the laws read through it against
the laws read through `apply`."""

from __future__ import annotations

from functools import cache

import pytest

import reference as ref
from aftlab import corpus, laws, operators as ops
from aftlab.lattice import AftlabError, NdPair, aprec_leq, precision_code, smyth_leq
from aftlab.operators import OperatorKind
from aftlab.program import parse


def refusal(fn, *args):
    """The value of the call, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except AftlabError as e:
        return type(e), str(e)


def apply_at_every_pair(kind, p):
    """`apply` at every pair of the operator's domain, by pair number."""
    u, n = p.universe, len(p.universe)
    pairs = u.consistent_masks() if ops.consistent_only(kind) else ((x, y) for x in range(1 << n) for y in range(1 << n))
    return {x << n | y: ops.apply(kind, p, u.pair(x, y)) for x, y in pairs}


AGGREGATES = ref.seeded(range(16), atoms=lambda s: 1 + s % 4, rules=lambda s: 1 + s % 4, negation_probability=0.4,
                        aggregate_probability=0.6, disjunction_width=lambda s: 1 + s // 4 % 2)


@cache
def programs():
    scope = [p for part, (build, _) in ref.SCOPE.items() for p in build()]
    return list(dict.fromkeys([*scope, *corpus.programs(), *AGGREGATES, parse(ref.GENERAL_BODY), parse("")]))


def test_the_programs_cover_every_class_and_size():
    tested = programs()
    classes = [p.compile().classification for p in tested]
    assert {len(p.universe) for p in tested} == set(range(6))
    assert {len(p.universe) for p, c in zip(tested, classes) if c.has_aggregates} >= {1, 2, 3, 4}
    assert any(c.has_negated_aggregates for c in classes) and any(c.shape == "general" for c in classes)
    assert any(not c.atomic_heads for c in classes) and any(c.atomic_heads and c.has_aggregates for c in classes)


def decoded_values(kind, p):
    """`ops.values` with each value's two rows decoded to an `NdPair`, by
    pair number, leaving out the None of a pair outside the domain."""
    u = p.universe
    return {number: NdPair(u.family(value[0]), u.family(value[1]))
            for number, value in enumerate(ops.values(kind, p)) if value is not None}


@pytest.mark.parametrize("kind", OperatorKind)
def test_values_equal_apply_at_every_pair(kind):
    refused = 0
    for p in programs():
        found = refusal(decoded_values, kind, p)
        assert found == refusal(apply_at_every_pair, kind, p), (kind, p.text)
        refused += not isinstance(found, dict)
    # `ic` refuses the aggregate programs and `dmt-det` the disjunctive ones.
    assert bool(refused) == (kind in (OperatorKind.IC, OperatorKind.DMT_DET))


@pytest.mark.parametrize("kind", [kind for kind in OperatorKind if ops.consistent_only(kind)])
def test_a_consistent_only_list_is_none_exactly_off_the_consistent_pairs(kind):
    """The list of a consistent-only kind has one entry per pair number,
    None exactly at the inconsistent pairs, and at each consistent pair
    `apply` there, before the decode."""
    checked = 0
    for p in programs():
        found = refusal(ops.values, kind, p)
        if not isinstance(found, list):
            continue
        u, n = p.universe, len(p.universe)
        assert len(found) == 1 << 2 * n, p.text
        assert [k for k, value in enumerate(found) if value is None] == [
            x << n | y for x in range(1 << n) for y in range(1 << n) if x & ~y], p.text
        for x, y in u.consistent_masks():
            value = ops.apply(kind, p, u.pair(x, y))
            assert found[x << n | y] == (u.row(value.lower_set), u.row(value.upper_set)), (p.text, x, y)
            checked += 1
    assert checked >= 1000, checked


def test_every_family_the_values_build_is_the_hitting_sets_of_its_heads():
    """Each kind read on each program of the referee, every row kept in the
    family store decodes to `reference.hitting_sets` of its head family."""
    checked = 0
    for p in ref.PROGRAMS:
        compiled = p.compile()
        for kind in OperatorKind:
            refusal(ops.values, kind, p)
        for heads, row in compiled.families.items():
            checked += 1
            assert p.universe.family(row) == ref.hitting_sets(ops._heads(compiled, heads)), (p.text, heads)
    # 150 families, measured.
    assert checked >= 150


def test_precision_codes_of_the_values_decide_the_frozenset_orders():
    """Over every pair of distinct values of each kind on the referee's
    programs, the `PrecisionCode` test is `aprec_leq` on the decoded values,
    and for each value the test `upwards-coherence` makes on its code is
    `smyth_leq` of its lower set and its upper set."""
    pairs = 0
    for p in ref.PROGRAMS:
        u, n = p.universe, len(p.universe)
        for kind in OperatorKind:
            found = refusal(ops.values, kind, p)
            if not isinstance(found, list):
                continue
            distinct = list(dict.fromkeys(value for value in found if value is not None))
            codes = [precision_code(n, *value) for value in distinct]
            decoded = [NdPair(u.family(lower), u.family(upper)) for lower, upper in distinct]
            for a, code_a, value_a in zip(distinct, codes, decoded):
                coherent = not code_a.members >> (1 << n) & ~code_a.allowed
                assert coherent == smyth_leq(value_a.lower_set, value_a.upper_set), (p.text, kind, a)
                for b, code_b, value_b in zip(distinct, codes, decoded):
                    pairs += a != b
                    assert (not code_b.members & ~code_a.allowed) == aprec_leq(value_a, value_b), (p.text, kind, a, b)
    assert pairs >= 9000, pairs


def test_the_laws_read_through_values_equal_those_read_through_apply():
    programs = laws.suite_programs()
    by_values = laws.run_laws(programs)
    assert by_values == laws.run_laws(programs, apply_fn=ops.apply)
    assert [o.name for o in by_values if not o.ok] == ["gz-answer-sets"]
