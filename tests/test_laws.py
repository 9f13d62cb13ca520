import contextlib
import inspect
import io
import re
import textwrap

import pytest

import reference as ref
from aftlab import cli, corpus, four, lattice, laws, operators as ops, program as prog
from aftlab.four import And, Atom, Const, Not, Truth
from aftlab.lattice import AftlabError, ApproxPair, AtomUniverse, NdPair
from aftlab.operators import OperatorKind
from aftlab.program import GeneralFormula, ParseError, Program, ProgramClassError, Rule, make_program, parse


@pytest.fixture(scope="module")
def small_suite():
    return laws.suite_programs(count=40, atoms=3, rules=4, seed=0)


def test_all_laws_except_the_known_defect_pass(small_suite):
    outcomes = laws.run_laws(small_suite)
    by_name = {o.name: o for o in outcomes}
    assert set(by_name) == set(laws.LAW_NAMES)
    for name, outcome in by_name.items():
        if name == "gz-answer-sets":
            # Known irreconcilable pair of definitions: the trivial operator's
            # literal stable machinery cannot reproduce the reduct answer sets
            # (see README.md).
            assert not outcome.ok
            assert outcome.failure and "reproducer" in outcome.failure
        else:
            assert outcome.ok, f"{name}: {outcome.failure}"
            assert outcome.cases > 0


# (name, ok, cases) over 4-atom programs, recorded while every law still took
# the atom cap as an argument; gz-answer-sets fails by design (README "Known defect").
FOUR_ATOM_OUTCOMES = [
    ("monotonicity", True, 61070),
    ("exactness", True, 1958),
    ("precision-chain", True, 2454),
    ("ultimate-max", True, 6252),
    ("symmetry", True, 3908),
    ("upwards-coherence", True, 8706),
    ("ht-equality", True, 32),
    ("total-stable-ht", True, 182),
    ("seq-nonempty", True, 182),
    ("stable-t-minimal", True, 182),
    ("gz-answer-sets", False, 1),
    ("dmt-det-collapse", True, 104),
    ("prefixpoint-minimal", True, 1958),
]


def test_law_outcomes_on_four_atom_programs():
    outcomes = laws.run_laws(laws.suite_programs(40, atoms=4, rules=4, seed=400))
    assert [(o.name, o.ok, o.cases) for o in outcomes] == FOUR_ATOM_OUTCOMES


@pytest.mark.parametrize("rules", [0, -1])
def test_suite_programs_need_a_rule(rules):
    with pytest.raises(AftlabError):
        laws.suite_programs(2, rules=rules)


def test_law_selection():
    # A law named twice runs once, in the place it was first named.
    programs = corpus.programs()
    outcomes = laws.run_laws(programs, ["seq-nonempty", "precision-chain", "seq-nonempty"])
    assert [o.name for o in outcomes] == ["seq-nonempty", "precision-chain"]
    assert all(o.ok for o in outcomes)


def test_the_laws_assume_bodies_without_truth_constants(tmp_path):
    """At a total pair a body holding U or C may keep one bit only, while
    `hd` reads it two-valued, so `ic` would not be exact there and no law
    would hold of it. The parser refuses `#u` and `#c` at their position,
    `make_program` and `Program.compile` a body built with U or C, and the
    CLI exits 2 on such a file without a traceback."""
    for text, col in [("p :- #c.", 6), ("p :- #u.", 6), ("p :- q & #u.", 10), ("p :- q, #c.", 9)]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (1, col), text
    for value in (Truth.U, Truth.C):
        for body in (Const(value), And(Atom("q"), Not(Const(value)))):
            rules = (Rule(("p",), GeneralFormula(body)),)
            with pytest.raises(AftlabError, match="truth constant U or C"):
                make_program(rules)
            with pytest.raises(AftlabError, match="truth constant U or C"):
                Program(rules, AtomUniverse.of("pq")).compile()
    path = tmp_path / "constant.lp"
    path.write_text("q.\np :- q & #u.\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["semantics", "--program", str(path), "--semantics", "stable", "--operator", "ic"])
    assert code == 2 and err.getvalue().startswith("error: line 2, column 10: ")
    assert "Traceback" not in err.getvalue()
    for p in corpus.programs():
        assert not re.search(r"#(true|false|u|c)\b", p.text), p.text
    assert all(p.compile().classification.shape != "general" for p in laws.suite_programs())


# The laws that read the operators only through the table.
TABLE_LAWS = ["monotonicity", "exactness", "precision-chain", "ultimate-max", "symmetry", "upwards-coherence",
              "prefixpoint-minimal"]


def test_the_table_laws_name_each_pair_by_its_number(monkeypatch):
    """On fresh parses of the corpus, where they all hold, the table laws ask
    the universe for no `ApproxPair`: they walk the pair numbers, and build a
    pair only for a failure message."""
    calls = dict.fromkeys(["pair", "consistent_pairs"], 0)
    for name in calls:

        def counting(*args, name=name, method=getattr(AtomUniverse, name)):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(AtomUniverse, name, counting)
    outcomes = laws.run_laws(corpus.programs(), TABLE_LAWS)
    assert [o.name for o in outcomes if not o.ok] == []
    assert calls == {"pair": 0, "consistent_pairs": 0}


def test_unknown_law_name_rejected():
    with pytest.raises(ProgramClassError):
        laws.run_laws(corpus.programs(), ["no-such-law"])


def test_corrupted_operator_fails_with_reproducer():
    def corrupted(kind, p, i):
        value = ops.apply(kind, p, i)
        if kind is OperatorKind.GZ and i.is_total and i.lower:
            return NdPair(value.lower_set | {p.universe.full()}, frozenset({frozenset()}))
        return value

    outcomes = laws.run_laws(corpus.programs(), ["exactness"], apply_fn=corrupted)
    assert not outcomes[0].ok
    assert "reproducer" in outcomes[0].failure
    assert "gz not exact" in outcomes[0].failure


def _ht_keys_drop_the_last_key(monkeypatch):
    ht_keys = laws.sem._ht_keys
    monkeypatch.setattr(laws.sem, "_ht_keys", lambda kind, p, truth_minimal: ht_keys(kind, p, truth_minimal)[:-1])


def _closed_plane_misses_the_total_pairs(monkeypatch):
    tables = ops.interval_tables

    def faulty(kind, p):
        planes = tables(kind, p)
        closed = planes.closed & ~planes.digits.total
        return ops.PairPlanes(planes.digits, planes.lower, planes.upper, planes.smyth, closed)

    monkeypatch.setattr(ops, "interval_tables", faulty)


def test_ht_equality_checks_against_ht_satisfaction(monkeypatch):
    """A fault on the algebraic side alone, in the key reader or in the
    planes it ANDs, is caught against HT satisfaction of the rules as
    formulas (`semantics._ht_model_keys`), which reads neither."""
    for fault in (_ht_keys_drop_the_last_key, _closed_plane_misses_the_total_pairs):
        fault(monkeypatch)
        outcome = laws.run_laws(corpus.programs(), ["ht-equality"])[0]
        assert not outcome.ok, fault.__name__
        assert "algebraic HT pairs differ from HT satisfaction of the rules\nreproducer:" in outcome.failure
        monkeypatch.undo()


def _ht_tables_mutant(monkeypatch, atom_columns):
    """`four.ht_tables` with an atom read as `atom_columns` (its classical
    and its HT plane) in place of its y and its x column."""
    source = textwrap.dedent(inspect.getsource(four.ht_tables))
    assert source.count("return in_y, in_x") == 1
    namespace = dict(vars(four))
    exec(source.replace("return in_y, in_x", f"return {atom_columns}"), namespace)
    monkeypatch.setattr(four, "ht_tables", namespace["ht_tables"])


def test_ht_equality_reads_the_classical_half_at_the_upper_set(monkeypatch):
    """A mutant whose classical half reads x (the x columns) instead of y is
    caught on the corpus."""
    _ht_tables_mutant(monkeypatch, "in_x, in_x")
    outcome = laws.run_laws(corpus.programs(), ["ht-equality"])[0]
    assert not outcome.ok
    assert "differ from HT satisfaction of the rules" in outcome.failure


def test_ht_equality_reads_the_ht_atoms_at_the_lower_set(monkeypatch):
    """A mutant whose HT half reads an atom at y (its y column) instead of x
    is caught on the corpus."""
    _ht_tables_mutant(monkeypatch, "in_y, in_y")
    outcome = laws.run_laws(corpus.programs(), ["ht-equality"])[0]
    assert not outcome.ok
    assert "differ from HT satisfaction of the rules" in outcome.failure


def test_suite_programs_deterministic():
    a = [p.text for p in laws.suite_programs(10, 3, 4, 0)]
    b = [p.text for p in laws.suite_programs(10, 3, 4, 0)]
    assert a == b
    assert len(a) == 10 + len(corpus.names())


def test_run_laws_visits_by_rules_atoms_and_text(monkeypatch):
    """The programs are visited by (rules, atoms, text), ties in that kept
    in the order given: the suite's programs, then reparsed copies of the
    last ones in reverse, which tie with them in all three."""
    programs = laws.suite_programs()
    programs += [parse(p.text) for p in reversed(programs[-40:])]
    visited, table = [], laws.OperatorTable
    monkeypatch.setattr(laws, "OperatorTable", lambda p, apply_fn=None: visited.append(p) or table(p, apply_fn))
    laws.run_laws(programs, ["exactness"])
    expected = sorted(programs, key=lambda p: (len(p.rules), len(p.universe), p.text))
    assert [id(p) for p in visited] == [id(p) for p in expected]


def test_run_laws_prints_no_program_that_ties_with_none(monkeypatch):
    """A text is printed only to order programs of equal rules and atoms."""
    programs = [parse("p :- q.\nq.\n"), parse("p."), parse("p :- q, not r.\n"), parse("p :- not q.\n")]
    printed, print_program = [], prog.print_program
    monkeypatch.setattr(prog, "print_program", lambda p: printed.append(p) or print_program(p))
    assert all(o.ok for o in laws.run_laws(programs, ["exactness"]))
    assert printed == []
    laws.run_laws(programs + [parse("q :- not p.\n")], ["exactness"])
    assert len(printed) >= 2


def test_prefixpoint_minimal_reads_the_operator_once_per_candidate():
    calls = []

    def counting(kind, p, i):
        calls.append((kind, p, i))
        return ops.apply(kind, p, i)

    programs = corpus.programs()
    outcome = laws.run_laws(programs, ["prefixpoint-minimal"], apply_fn=counting)[0]
    assert outcome.ok
    # The candidates at y are its 2^|y| subsets for a consistent-only
    # operator and all 2^n sets for a four-valued one.
    candidates = sum(
        1 << (len(y) if ops.consistent_only(kind) else len(p.universe))
        for p in programs
        for kind in laws._ndao_kinds(p)
        for y in p.universe.subsets()
    )
    assert len(calls) == len(set(calls)) == candidates


def test_prefixpoint_minimal_tells_smyth_below_from_member():
    """A dmt whose lower set at (x, A) is {∅} for x ≠ ∅ and {A} at x = ∅ has
    no fixpoint under A, while every x ≠ ∅ is a pre-fixpoint: the law fails
    unless its Smyth test is more than the membership test."""

    def mutant(kind, p, i):
        u = p.universe
        if kind is OperatorKind.DMT and i.upper == u.full():
            return NdPair(frozenset((frozenset() if i.lower else u.full(),)), frozenset((u.full(),)))
        return ops.apply(kind, p, i)

    outcome = laws.run_laws([parse("p | q.")], ["prefixpoint-minimal"], apply_fn=mutant)[0]
    assert not outcome.ok
    assert outcome.failure.startswith("dmt: minimal fixpoints and minimal pre-fixpoints differ at upper bound {p,q}\n")


def asks(programs, names=None):
    """The (kind, program, pair) asks of one `run_laws` over the programs."""
    asked = []

    def counting(kind, p, i):
        asked.append((kind, id(p), i))
        return ops.apply(kind, p, i)

    laws.run_laws(programs, names, apply_fn=counting)
    return asked


def law_reads(p, name):
    """The (kind, program, pair) asks of a law that passes on p, each read
    through `apply_fn` pair by pair: `exactness` reads the total pairs
    alone, `symmetry` and `prefixpoint-minimal` read `ic` at every pair, the
    inconsistent ones too, and the others the consistent pairs."""
    u, kinds = p.universe, laws._ndao_kinds(p)
    consistent, total = set(u.consistent_pairs()), {ApproxPair(x, x) for x in u.subsets()}
    every = {ApproxPair(x, y) for x in u.subsets() for y in u.subsets()}
    det = [OperatorKind.DMT_DET] if p.compile().classification.atomic_heads else []
    reads = {
        "monotonicity": [(k, consistent) for k in kinds + det],
        "exactness": [(k, total) for k in kinds],
        "precision-chain": [(k, consistent) for k in (OperatorKind.GZ, OperatorKind.DMT, OperatorKind.ULTIMATE)],
        "ultimate-max": [(k, consistent) for k in kinds],
        "symmetry": [(OperatorKind.IC, every)] if OperatorKind.IC in kinds else [],
        "upwards-coherence": [(k, consistent) for k in kinds],
        "dmt-det-collapse": [(k, consistent) for k in [OperatorKind.DMT, *det]] if det else [],
        "prefixpoint-minimal": [(k, consistent if ops.consistent_only(k) else every) for k in kinds],
    }
    return {(k, id(p), i) for k, pairs in reads.get(name, []) for i in pairs}


def test_each_value_is_read_once_per_run(precision_suite):
    """`run_laws` asks `apply_fn` for each (kind, program, pair) at most once
    over all the laws, and each law alone for what it reads."""
    everything = asks(precision_suite)
    assert len(everything) == len(set(everything))
    alone = {name: asks(precision_suite, [name]) for name in laws.LAW_NAMES}
    for name, asked in alone.items():
        assert len(asked) == len(set(asked)), name
        assert set(asked) == set().union(*(law_reads(p, name) for p in precision_suite)), name
    assert set(everything) == set().union(*alone.values())


def is_least_precise(p, i):
    return i == ApproxPair(frozenset(), p.universe.full())


def test_symmetry_reads_ic_through_apply_fn():
    def emptied(kind, p, i):
        value = ops.apply(kind, p, i)
        if kind is OperatorKind.IC and is_least_precise(p, i):
            return NdPair(frozenset(), value.upper_set)
        return value

    outcome = laws.run_laws(corpus.programs(), ["symmetry"], apply_fn=emptied)[0]
    assert not outcome.ok
    assert "differs from upper at the swapped pair\nreproducer:" in outcome.failure



def test_symmetry_catches_a_fault_in_the_lower_reading_of_the_ic_fill_alone(monkeypatch):
    """A mutant of `operators.values`' four-valued fill whose lower reading
    ignores the neg of the first rule, its upper reading unchanged, fails
    `symmetry`: each side of a pair is read from its own definition, so the
    upper side is not the lower one at the swapped pair."""
    source = textwrap.dedent(inspect.getsource(ops._four_folds))
    reading = "lower, upper = within_x & missing[ym], within[ym] & missing_x"
    assert source.count(reading) == 1
    namespace = dict(vars(ops))
    exec(source.replace(reading, "lower, upper = within_x & (missing[ym] | 1), within[ym] & missing_x"), namespace)
    monkeypatch.setattr(ops, "_four_folds", namespace["_four_folds"])
    outcome = laws.run_laws(laws.suite_programs(), ["symmetry"])[0]
    assert (outcome.ok, outcome.cases) == (False, 6)
    assert outcome.failure == (
        "lower at (∅, {p}) differs from upper at the swapped pair\nreproducer:\np :- not p.\n"
    )


# Mutants of the runs of `DigitPlanes.minimal_t` (`lattice._truth_runs`):
# they are kept only where digit i is 1, so the up-closure steps up to digit
# 1 alone and the last test steps down from digit 1 alone; or atom 0 has no
# run. Closing along each run once is no such mutant: an HT plane marks
# (x, z) wherever it marks (x, y) and (z, z) with y within z, so one step
# per atom closes it and the mutant keeps the same pairs.
MINIMAL_T_MUTANTS = {
    "runs-keep-digit-1-alone": ("(s, d1 | d1 << s)", "(s, d1)"),
    "drops-the-run-of-atom-0": ("zip(digits.steps, digits.d1)", "zip(digits.steps[1:], digits.d1[1:])"),
}


@pytest.mark.parametrize("mutant", MINIMAL_T_MUTANTS)
def test_total_stable_ht_reads_the_truth_minimal_plane(monkeypatch, mutant):
    """`total-stable-ht` reads the truth-minimal HT pairs off the
    `minimal_t` plane and the stable fixpoints off planes and rows that read
    no `minimal_t`, so a fault there fails it. `stable-t-minimal` and
    `gz-answer-sets` read `minimal_t` too, on the fixpoint plane, and keep
    their outcomes (measured): either mutant drops fewer pairs, never a
    truth-minimal one, so every stable fixpoint stays among those it keeps,
    and `gz-answer-sets` fails at its first program either way."""
    programs = laws.suite_programs()
    others = ["stable-t-minimal", "gz-answer-sets"]
    expected = laws.run_laws(programs, others)
    source = inspect.getsource(lattice._truth_runs)
    old, new = MINIMAL_T_MUTANTS[mutant]
    assert source.count(old) == 1
    namespace = dict(vars(lattice))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(lattice, "_truth_runs", namespace["_truth_runs"])
    outcome, *rest = laws.run_laws(programs, ["total-stable-ht", *others])
    assert not outcome.ok
    assert ": total truth-minimal HT pairs differ from total stable fixpoints\nreproducer:" in outcome.failure
    assert rest == expected

def test_dmt_det_collapse_reads_both_operators_through_apply_fn():
    def complemented(kind, p, i):
        value = ops.apply(kind, p, i)
        if kind is OperatorKind.DMT_DET and is_least_precise(p, i):
            (lower,) = value.lower_set
            return NdPair(frozenset((p.universe.full() - lower,)), value.upper_set)
        return value

    outcome = laws.run_laws(corpus.programs(), ["dmt-det-collapse"], apply_fn=complemented)[0]
    assert not outcome.ok
    assert outcome.failure.startswith("head-level interval operator does not collapse at ")


def test_dmt_det_collapse_checks_the_shared_planes(monkeypatch):
    """`dmt` and `dmt-det` share one set of planes (`operators.pair_planes`),
    so a fault there is the same on both sides of a comparison of their
    stable fixpoints. The law compares the deterministic stable pairs with
    those of `dmt-det` as the reference operators give it, pair by pair."""
    tables = ops.interval_tables

    def upper_misses_the_total_pairs(kind, p):
        planes = tables(kind, p)
        if kind is OperatorKind.DMT:
            digits = planes.digits
            return ops.PairPlanes(digits, planes.lower, planes.upper & ~digits.total, planes.smyth, planes.closed)
        return planes

    monkeypatch.setattr(ops, "interval_tables", upper_misses_the_total_pairs)
    outcome = laws.run_laws(laws.suite_programs(), ["dmt-det-collapse"])[0]
    assert not outcome.ok
    assert outcome.cases == 4
    assert outcome.failure.startswith("interval-operator stable fixpoints differ from the deterministic stable pairs\n")


@pytest.mark.parametrize("names", [[name] for name in laws.LAW_NAMES] + [None], ids=[*laws.LAW_NAMES, "all"])
def test_the_reference_laws_never_ask_apply(monkeypatch, names):
    """With no `apply_fn`, the laws read each operator from one
    `operators.values` call, whichever law reads it first, and give the
    outcomes they give over `apply`."""
    expected = laws.run_laws(laws.suite_programs(60), names, apply_fn=ops.apply)
    calls, apply = [], ops.apply
    monkeypatch.setattr(ops, "apply", lambda *args: calls.append(args) or apply(*args))
    assert laws.run_laws(laws.suite_programs(60), names) == expected
    assert calls == []


def at_the_least_precise_pair(kind, change):
    """The operator with `kind`'s value at the non-total pair (∅, A) changed."""

    def mutant(k, p, i):
        value = ops.apply(k, p, i)
        if k is kind and not i.lower and i.upper == p.universe.full() and i.upper:
            return change(p.universe, value)
        return value

    return mutant


def at_a_total_pair(kind, change):
    """The operator with `kind`'s value changed at the total pair (x, x), x
    the universe without its first atom, on a universe of two atoms or more,
    where x is neither ∅ nor A: deeper in the pair order than (∅, A)."""

    def mutant(k, p, i):
        value = ops.apply(k, p, i)
        u = p.universe
        if k is kind and len(u) > 1 and i.is_total and i.lower == u.unmask((1 << len(u)) - 2):
            return change(u, value)
        return value

    return mutant


DEEP_MUTANT = "dmt-least-precise-at-a-total-pair"

MUTANTS = {
    "unchanged": ops.apply,
    "dmt-drops-a-lower-member": at_the_least_precise_pair(
        OperatorKind.DMT, lambda u, v: NdPair(v.lower_set - {min(v.lower_set, key=u.mask)}, v.upper_set)
    ),
    "ultimate-drops-an-upper-member": at_the_least_precise_pair(
        OperatorKind.ULTIMATE, lambda u, v: NdPair(v.lower_set, v.upper_set - {max(v.upper_set, key=u.mask)})
    ),
    "dmt-lower-set-is-the-full-set": at_the_least_precise_pair(
        OperatorKind.DMT, lambda u, v: NdPair(frozenset((u.full(),)), v.upper_set)
    ),
    DEEP_MUTANT: at_a_total_pair(OperatorKind.DMT, lambda u, v: NdPair(frozenset((frozenset(),)), frozenset((u.full(),)))),
}


# Every mutant breaks every one of these laws but four, as the frozenset laws
# decide. Ultimate's upper set with a member less only fails where ultimate is
# the less precise side, which precision-chain and ultimate-max never make it.
# The value ({∅}, {A}) is below every value in precision, so no operator is
# less precise than dmt there (ultimate-max), and its lower set lies
# Smyth-below its upper set (upwards-coherence).
UNBROKEN = {
    ("precision-chain", "ultimate-drops-an-upper-member"),
    ("ultimate-max", "ultimate-drops-an-upper-member"),
    ("ultimate-max", DEEP_MUTANT),
    ("upwards-coherence", DEEP_MUTANT),
}


@pytest.fixture(scope="module")
def precision_suite():
    programs = laws.suite_programs(24, atoms=3, rules=4, seed=0)
    for p in programs:
        p.compile()
    return programs


@pytest.mark.parametrize("mutant", MUTANTS)
@pytest.mark.parametrize("name", ref.FROZENSET_LAWS)
def test_precision_codes_give_the_frozenset_outcome(monkeypatch, precision_suite, name, mutant):
    apply_fn = MUTANTS[mutant]
    per_program = [laws.LAWS[name](p, laws.OperatorTable(p, apply_fn)) for p in precision_suite]
    assert per_program == [ref.FROZENSET_LAWS[name](p, apply_fn) for p in precision_suite]
    outcome = laws.run_laws(precision_suite, [name], apply_fn=apply_fn)
    monkeypatch.setitem(laws.LAWS, name, lambda p, table: ref.FROZENSET_LAWS[name](p, apply_fn))
    assert outcome == laws.run_laws(precision_suite, [name], apply_fn=apply_fn)
    assert outcome[0].ok == (mutant == "unchanged" or (name, mutant) in UNBROKEN)


def test_a_mutant_breaks_monotonicity_deep_in_the_pair_order(precision_suite):
    """The total-pair mutant fails monotonicity at a pair (x, y) with x ≠ ∅,
    after a case count that no mutant at (∅, A) gives, so the closure's
    fallback walks from a pair inside the order."""

    def first_failure(mutant):
        return next(out for p in precision_suite if (out := ref.frozenset_monotonicity(p, MUTANTS[mutant]))[1])

    cases, failure = first_failure(DEEP_MUTANT)
    assert not failure.split("not precision-monotone: ")[1].startswith("(∅,"), failure
    assert cases not in {first_failure(m)[0] for m in MUTANTS if m not in ("unchanged", DEEP_MUTANT)}
