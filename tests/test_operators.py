import pickle

import pytest

import reference as ref
from aftlab import corpus, operators as ops
from aftlab.lattice import AftlabError, ApproxPair, InconsistentPairError, Lazy, NdPair, UnknownAtomError, aprec_leq
from aftlab.lattice import smyth_leq
from aftlab.operators import OperatorKind
from aftlab.program import ProgramClassError, classify, parse
from conftest import atoms, family, pair


DELTA1 = family({"q"}, {"r"}, {"q", "r"})
DELTA2 = family({"q", "s"}, {"r", "s"}, {"q", "r", "s"})
PQ_HITS = family({"p"}, {"q"}, {"p", "q"})


def test_hd_examples(disjunctive_self_defeat, aggregate_cycle):
    assert ops.hd(aggregate_cycle, atoms("r", "s")) == family({"q", "r"}, {"s"})
    assert ops.hd(aggregate_cycle, atoms()) == frozenset()
    assert ops.hd(disjunctive_self_defeat, atoms()) == family({"p", "q"})


def test_hitting_sets_examples():
    assert ops.hitting_sets(family({"p", "q"})) == PQ_HITS
    assert ops.hitting_sets(frozenset()) == family(())
    assert ops.hitting_sets(family({"r", "q"}, {"s"})) == DELTA2


def test_hitting_sets_rejects_empty_member():
    with pytest.raises(AftlabError):
        ops.hitting_sets(family(()))


def test_ic_examples(negation_vs_positive_loop, aggregate_cycle):
    assert ops.ic(negation_vs_positive_loop, atoms()) == family({"q"})
    assert ops.ic(negation_vs_positive_loop, atoms("q")) == family({"q"})
    assert ops.ic(aggregate_cycle, atoms("s")) == DELTA1
    assert ops.ic(aggregate_cycle, atoms()) == family(())


def test_aggregate_cycle_full_table(aggregate_cycle):
    hd = {
        (): (),
        ("q",): ({"s"},),
        ("r",): ({"s"},),
        ("s",): ({"q", "r"},),
        ("q", "r"): ({"s"},),
        ("q", "s"): ({"q", "r"}, {"s"}),
        ("r", "s"): ({"q", "r"}, {"s"}),
        ("q", "r", "s"): ({"q", "r"}, {"s"}),
    }
    ic = {
        (): ((),),
        ("q",): ({"s"},),
        ("r",): ({"s"},),
        ("s",): ({"q"}, {"r"}, {"q", "r"}),
        # the activated heads at {q,r} are {{s}}, so the consequences are {{s}}
        ("q", "r"): ({"s"},),
        ("q", "s"): ({"q", "s"}, {"r", "s"}, {"q", "r", "s"}),
        ("r", "s"): ({"q", "s"}, {"r", "s"}, {"q", "r", "s"}),
        ("q", "r", "s"): ({"q", "s"}, {"r", "s"}, {"q", "r", "s"}),
    }
    for x, heads in hd.items():
        assert ops.hd(aggregate_cycle, frozenset(x)) == family(*heads)
    for x, out in ic.items():
        assert ops.ic(aggregate_cycle, frozenset(x)) == family(*out)


def test_ic_ndao_examples(disjunctive_self_defeat):
    assert ops.apply(OperatorKind.IC, disjunctive_self_defeat, pair("", "q")) == NdPair(family(()), PQ_HITS)
    assert ops.apply(OperatorKind.IC, disjunctive_self_defeat, pair("q", "q")) == NdPair(family(()), family(()))
    for x in disjunctive_self_defeat.universe.subsets():
        total = ops.apply(OperatorKind.IC, disjunctive_self_defeat, ApproxPair(x, x))
        assert total.lower_set == total.upper_set == ops.ic(disjunctive_self_defeat, x)


def test_ic_ndao_is_total_on_inconsistent_pairs(disjunctive_self_defeat):
    value = ops.apply(OperatorKind.IC, disjunctive_self_defeat, pair("q", "p"))
    assert value.lower_set == PQ_HITS  # negated q is contradictory there, so >=_t C
    assert value.upper_set == family(())


def test_ic_ndao_rejects_aggregates(sum_chain_program):
    with pytest.raises(ProgramClassError):
        ops.apply(OperatorKind.IC, sum_chain_program, pair())


def test_dmt_det_examples(negation_vs_positive_loop, sum_split_program):
    assert ops.dmt_det(negation_vs_positive_loop, pair("", "p,q")) == pair("", "p,q")
    assert ops.dmt_det(sum_split_program, pair("", "p")) == pair("p", "p")
    for x in negation_vs_positive_loop.universe.subsets():
        total = ops.dmt_det(negation_vs_positive_loop, ApproxPair(x, x))
        fired = frozenset().union(*ops.hd(negation_vs_positive_loop, x)) if ops.hd(negation_vs_positive_loop, x) else frozenset()
        assert total == ApproxPair(fired, fired)


def test_dmt_det_errors(disjunctive_self_defeat, negation_vs_positive_loop):
    with pytest.raises(ProgramClassError):
        ops.dmt_det(disjunctive_self_defeat, pair())
    with pytest.raises(InconsistentPairError):
        ops.dmt_det(negation_vs_positive_loop, pair("p", ""))


def test_dmt_ndao_examples(disjunctive_self_defeat, negation_loop_disjunction, aggregate_cycle):
    assert ops.dmt_ndao(disjunctive_self_defeat, pair("", "p,q")) == NdPair(family(()), PQ_HITS)
    assert ops.dmt_ndao(disjunctive_self_defeat, pair("p", "p")) == NdPair(PQ_HITS, PQ_HITS)
    assert ops.dmt_ndao(negation_loop_disjunction, pair("", "q")).lower_set == family(())
    rs = ApproxPair(atoms("r", "s"), atoms("r", "s"))
    assert ops.dmt_ndao(aggregate_cycle, rs) == NdPair(DELTA2, DELTA2)
    assert ops.dmt_ndao(aggregate_cycle, pair("", "r,s")) == NdPair(family(()), DELTA2)


def test_ultimate_examples(negation_vs_positive_loop, aggregate_cycle):
    assert ops.ultimate_ndao(negation_vs_positive_loop, pair("", "p,q")) == NdPair(family({"p"}, {"q"}), family({"p"}, {"q"}))
    assert ops.ultimate_ndao(negation_vs_positive_loop, pair("", "q")) == NdPair(family({"q"}), family({"q"}))
    powerset = frozenset(aggregate_cycle.universe.subsets())
    value = ops.ultimate_ndao(aggregate_cycle, pair("", "r,s"))
    assert value.lower_set == value.upper_set == powerset


def test_gz_examples(disjunctive_self_defeat, aggregate_cycle):
    rs = ApproxPair(atoms("r", "s"), atoms("r", "s"))
    assert ops.gz_ndao(aggregate_cycle, rs) == NdPair(DELTA2, DELTA2)
    assert ops.gz_ndao(aggregate_cycle, pair("", "q")) == NdPair(family(()), family({"q", "r", "s"}))
    for x in disjunctive_self_defeat.universe.subsets():
        assert ops.gz_ndao(disjunctive_self_defeat, ApproxPair(x, x)) == ops.apply(OperatorKind.IC, disjunctive_self_defeat, ApproxPair(x, x))


def test_gz_reads_no_base_entry_off_the_total_pairs(monkeypatch):
    """`gz` is ({∅}, {A}) at every consistent pair that is not total,
    whatever the program, so `apply` reads no base entry there; at a total
    pair (z, z) it reads the one entry of z. Every read of the program's
    base store (`Compiled.base`) is recorded, kept or not."""
    read = []

    class Recorded(Lazy):
        def __getitem__(self, xm):
            read.append(xm)
            return super().__getitem__(xm)

    for p in ref.PROGRAMS:
        compiled, u = p.compile(), p.universe
        monkeypatch.setattr(compiled, "base", Recorded(compiled.base.fill))
        for xm, ym in u.consistent_masks():
            read.clear()
            value = ops.apply(OperatorKind.GZ, p, u.pair(xm, ym))
            if xm == ym:
                assert read == [xm], (p.text, xm)
            else:
                assert read == [], (p.text, xm, ym)
                assert value == NdPair(frozenset([frozenset()]), frozenset([u.full()])), (p.text, xm, ym)


def test_every_kind_refuses_an_atom_outside_the_universe(aggregate_cycle):
    """p is not an atom of either program. Every operator refuses the pair,
    `gz` too, although its value off the total pairs does not depend on the
    pair's atoms. On `aggregate_cycle`, `ic` and `dmt-det` refuse the
    program first."""
    atomic = parse("q :- not r.\nr :- not q.\n")
    off = pair("", "p")
    for p, refusals in [
        (atomic, dict.fromkeys(OperatorKind, UnknownAtomError)),
        (aggregate_cycle, {**dict.fromkeys(OperatorKind, UnknownAtomError),
                           OperatorKind.IC: ProgramClassError, OperatorKind.DMT_DET: ProgramClassError}),
    ]:
        for kind, error in refusals.items():
            with pytest.raises(error):
                ops.apply(kind, p, off)
    for reference in (ops.dmt_ndao, ops.ultimate_ndao, ops.gz_ndao, ops.dmt_det):
        with pytest.raises(UnknownAtomError):
            reference(atomic, off)


# The memoized functions of each kind; each reads `apply`.
MEMOIZED = {
    OperatorKind.IC: (ops.ic_lower_set, ops.ic_upper_set),
    OperatorKind.DMT: (ops.dmt_ndao,),
    OperatorKind.ULTIMATE: (ops.ultimate_ndao,),
    OperatorKind.GZ: (ops.gz_ndao,),
    OperatorKind.DMT_DET: (ops.dmt_det,),
    OperatorKind.IC_TRIV: (),
}
CLASS_REFUSALS = {
    OperatorKind.IC: "the four-valued operator needs an aggregate-free program",
    OperatorKind.DMT_DET: "the deterministic operator needs atomic heads",
}


def _refusal(fn, *args):
    try:
        fn(*args)
    except AftlabError as e:
        return type(e), str(e)
    return None


def test_refusals_come_in_the_order_apply_states():
    """A program outside the kind's class is refused first, then, by the
    operators defined on consistent pairs only, an inconsistent pair, then
    an atom outside the universe: by `apply` and by every memoized function,
    on each input alone and on each combination. `values` refuses the class
    as `apply` does. The second program has an aggregate and a disjunctive
    head, so it is outside the class of both `ic` and `dmt-det`."""
    inside, outside = parse("q :- not r.\nr :- not q.\n"), parse("q | r :- #count{1:q} < 1.\n")
    pairs = {
        (): pair("q", "q,r"),
        ("inconsistent",): pair("q,r", "q"),
        ("unknown",): pair("", "q,z"),
        ("inconsistent", "unknown"): pair("q,z", "q"),
    }
    for p in (inside, outside):
        for kind in OperatorKind:
            outside_class = p is outside and kind in CLASS_REFUSALS
            refused_class = (ProgramClassError, CLASS_REFUSALS[kind]) if outside_class else None
            assert _refusal(ops.values, kind, p) == refused_class, (p.text, kind)
            for flags, i in pairs.items():
                if refused_class:
                    expected = refused_class
                elif "inconsistent" in flags and ops.consistent_only(kind):
                    expected = (InconsistentPairError, "operator not defined on inconsistent pairs")
                elif "unknown" in flags:
                    expected = (UnknownAtomError, "unknown atom 'z'")
                else:
                    expected = None
                for reader in (lambda p, i: ops.apply(kind, p, i), *MEMOIZED[kind]):
                    assert _refusal(reader, p, i) == expected, (p.text, kind, flags, reader)


def test_operator_kinds_hash_by_identity_and_stay_singletons():
    """`OperatorKind` hashes its members by identity, in C. Each member is
    one object, looked up by value and restored by pickle as itself, so a
    dict keyed by kind finds it however it was reached."""
    assert OperatorKind.__hash__ is object.__hash__
    assert OperatorKind("ic") is ops.IC
    by_kind = {kind: kind.value for kind in OperatorKind}
    for kind in OperatorKind:
        again = pickle.loads(pickle.dumps(kind))
        assert again is kind and OperatorKind(kind.value) is kind
        assert by_kind[again] == kind.value and hash(again) == hash(kind)


def test_an_unknown_kind_is_refused_naming_it():
    """A kind that is not an `OperatorKind`, such as a member's value, is
    refused by `apply` at any consistent pair and by `values`, with one
    `AftlabError` that names it."""
    p = parse("q :- not r.\nr :- not q.\n")
    for kind in ("dmt", "ic", "gz", None):
        expected = (AftlabError, f"unknown operator kind {kind!r}")
        assert _refusal(ops.values, kind, p) == expected, kind
        for i in (pair("", "q,r"), pair("q", "q")):
            assert _refusal(ops.apply, kind, p, i) == expected, (kind, i)


def test_ic_triv_examples(aggregate_cycle):
    rs = ApproxPair(atoms("r", "s"), atoms("r", "s"))
    assert ops.apply(OperatorKind.IC_TRIV, aggregate_cycle, rs) == NdPair(DELTA2, DELTA2)
    # At (∅, {r, s}) both sums have an unknown condition, so both bodies are U.
    assert ops.apply(OperatorKind.IC_TRIV, aggregate_cycle, pair("", "r,s")) == NdPair(family(()), DELTA2)
    # At (∅, {r}) the condition s is false on both sides: the first body is F.
    assert ops.apply(OperatorKind.IC_TRIV, aggregate_cycle, pair("", "r")) == NdPair(family(()), family({"s"}))
    conjunctive = parse("p :- #count{1:p & q} < 1.")
    assert ops.apply(OperatorKind.IC_TRIV, conjunctive, pair("", "p")) == NdPair(family({"p"}), family({"p"}))
    assert ops.apply(OperatorKind.IC_TRIV, conjunctive, pair("p", "p,q")) == NdPair(family(()), family({"p"}))
    assert ops.apply(OperatorKind.IC_TRIV, aggregate_cycle, pair("s", "")) is not None


def _small_programs():
    return corpus.programs() + ref.seeded(range(12), atoms=3, rules=lambda s: 1 + s % 3, aggregate_probability=0.5)


def test_ic_triv_is_ic_on_aggregate_free_programs():
    for p in _small_programs():
        if classify(p).has_aggregates:
            continue
        for i in ref.all_pairs(p.universe):
            assert ops.apply(OperatorKind.IC_TRIV, p, i) == ops.apply(OperatorKind.IC, p, i)


def test_ic_triv_is_an_approximation_below_dmt():
    """Exact on total pairs, symmetric, precision-monotone, upwards coherent
    and below the head-level interval operator on consistent pairs."""
    for p in _small_programs():
        subsets = list(p.universe.subsets())
        pairs = ref.all_pairs(p.universe)
        values = {i: ops.apply(OperatorKind.IC_TRIV, p, i) for i in pairs}
        for x in subsets:
            exact = values[ApproxPair(x, x)]
            assert exact.lower_set == exact.upper_set == ops.ic(p, x)
        for i in pairs:
            assert values[i].lower_set == values[ApproxPair(i.upper, i.lower)].upper_set
            if i.is_consistent:
                assert smyth_leq(values[i].lower_set, values[i].upper_set)
                assert aprec_leq(values[i], ops.dmt_ndao(p, i))
            for j in pairs:
                if i.lower <= j.lower and j.upper <= i.upper:
                    assert aprec_leq(values[i], values[j])


def test_apply_dispatch(negation_vs_positive_loop, aggregate_cycle):
    point = ops.apply(OperatorKind.ULTIMATE, negation_vs_positive_loop, pair())
    assert point == NdPair(family({"q"}), family({"q"}))
    non_total = ops.apply(OperatorKind.GZ, aggregate_cycle, pair("", "s"))
    assert non_total == NdPair(family(()), family({"q", "r", "s"}))
    det = ops.apply(OperatorKind.DMT_DET, negation_vs_positive_loop, pair("q", "q"))
    assert det == NdPair(family({"q"}), family({"q"}))


def test_apply_class_and_consistency_errors(disjunctive_self_defeat, aggregate_cycle):
    with pytest.raises(ProgramClassError):
        ops.apply(OperatorKind.IC, aggregate_cycle, pair())
    with pytest.raises(ProgramClassError):
        ops.apply(OperatorKind.DMT_DET, disjunctive_self_defeat, pair())
    for kind in (OperatorKind.DMT, OperatorKind.ULTIMATE, OperatorKind.GZ):
        with pytest.raises(InconsistentPairError):
            ops.apply(kind, disjunctive_self_defeat, pair("p", ""))
    assert ops.apply(OperatorKind.IC, disjunctive_self_defeat, pair("p", "")) is not None


def test_precision_chain_aggregate_cycle(aggregate_cycle):
    i = pair("", "r,s")
    gz = ops.apply(OperatorKind.GZ, aggregate_cycle, i)
    dmt = ops.apply(OperatorKind.DMT, aggregate_cycle, i)
    assert aprec_leq(gz, dmt)


def test_symmetry_of_four_valued_operator(disjunctive_self_defeat):
    for x in disjunctive_self_defeat.universe.subsets():
        for y in disjunctive_self_defeat.universe.subsets():
            assert ops.ic_lower_set(disjunctive_self_defeat, ApproxPair(x, y)) == ops.ic_upper_set(
                disjunctive_self_defeat, ApproxPair(y, x)
            )
