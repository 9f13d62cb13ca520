import argparse
import contextlib
import functools
import io
import json
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from aftlab import cli, corpus
from aftlab.cli import COMMANDS, HELP, UsageError
from aftlab.four import Truth
from aftlab.generator import GeneratorConfig, generate_program
from aftlab.operators import OperatorKind
from aftlab.program import GeneralFormula, Rule, make_program, parse, print_program, program_hash
from aftlab import semantics as sem
from test_four import _formula_strategy


def run(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def corpus_arg(name):
    return str(corpus.path(name))


def test_eval_text_output():
    code, out, _ = run(
        "eval", "--program", corpus_arg("disjunctive_self_defeat"), "--operator", "dmt", "--pair", ";p,q"
    )
    assert code == 0
    assert out == (
        "operator: dmt\n"
        "pair: (∅, {p,q})\n"
        "lower: {∅}\n"
        "upper: {{p}, {q}, {p,q}}\n"
    )


def test_eval_gz_non_total():
    code, out, _ = run(
        "eval", "--program", corpus_arg("aggregate_cycle"), "--operator", "gz", "--pair", ";s"
    )
    assert code == 0
    assert "lower: {∅}" in out
    assert "upper: {{q,r,s}}" in out


def test_eval_inconsistent_pair_exits_2():
    code, _, err = run(
        "eval", "--program", corpus_arg("disjunctive_self_defeat"), "--operator", "dmt", "--pair", "p;"
    )
    assert code == 2
    assert "error" in err


def test_eval_unknown_atom_exits_2():
    code, _, err = run(
        "eval", "--program", corpus_arg("disjunctive_self_defeat"), "--operator", "ic", "--pair", "zz;zz"
    )
    assert code == 2
    assert "unknown atom" in err


@pytest.mark.parametrize("spec", ["p;q;r", ";;", "p,q", ";p;"])
def test_eval_pair_without_exactly_one_separator_is_a_usage_error(spec):
    code, out, err = run(
        "eval", "--program", corpus_arg("disjunctive_self_defeat"), "--operator", "ic", "--pair", spec
    )
    assert (code, out) == (1, "")
    assert 'pair must be given as "x;y"' in err


def test_eval_json_golden():
    code, out, _ = run(
        "eval", "--program", corpus_arg("aggregate_cycle"), "--operator", "dmt",
        "--pair", ";r,s", "--format", "json",
    )
    assert code == 0
    assert out == corpus.expected_path("aggregate_cycle.eval.dmt").read_text(encoding="utf-8")


def _golden_argv(golden):
    name, semantics, operator = golden.rsplit(".", 2)
    if semantics == "eval":
        pair_arg = {"negation_vs_positive_loop": ";p,q", "negation_loop_disjunction": ";q", "aggregate_cycle": ";r,s"}[name]
        return ["eval", "--program", corpus_arg(name), "--operator", operator, "--pair", pair_arg]
    argv = ["semantics", "--program", corpus_arg(name), "--semantics", semantics]
    if operator != "none" and semantics not in ("gz-answer-sets", "three-valued-stable", "kk", "wf"):
        argv += ["--operator", operator]
    return argv


@pytest.mark.parametrize(
    "golden",
    [
        "disjunctive_self_defeat.stable.ic",
        "disjunctive_self_defeat.fixpoints.ic",
        "negation_vs_positive_loop.eval.ultimate",
        "negation_vs_positive_loop.wf.dmt-det",
        "negation_loop_disjunction.eval.dmt",
        "aggregate_cycle.eval.dmt",
        "no_total_stable.seq.ic",
        "sum_chain.gz-answer-sets.none",
        "guarded_choice_lt1.seq.gz",
        "guarded_choice_lt0.seq.gz",
        "sum_split.total-stable.dmt-det",
        "ht_strictness.ht.ic",
    ],
)
def test_json_goldens(golden):
    code, out, _ = run(*_golden_argv(golden), "--format", "json")
    assert code == 0
    expected = golden[: -len(".none")] if golden.endswith(".none") else golden
    assert out == corpus.expected_path(expected).read_text(encoding="utf-8")


def test_semantics_output_is_byte_stable():
    argv = ["semantics", "--program", corpus_arg("disjunctive_self_defeat"), "--semantics", "stable", "--operator", "ic"]
    first = run(*argv)
    second = run(*argv)
    assert first == second
    assert first[0] == 0
    assert "models (2):" in first[1]


def test_semantics_json_round_trips(disjunctive_self_defeat):
    code, out, _ = run(
        "semantics", "--program", corpus_arg("disjunctive_self_defeat"), "--semantics", "stable",
        "--operator", "ic", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    parsed = [
        (frozenset(m["lower"]), frozenset(m["upper"])) for m in payload["models"]
    ]
    in_memory = [tuple(i) for i in sem.stable_fixpoints(OperatorKind.IC, disjunctive_self_defeat)]
    assert parsed == in_memory


def test_semantics_three_valued_stable():
    code, out, _ = run(
        "semantics", "--program", corpus_arg("disjunctive_self_defeat"), "--semantics", "three-valued-stable"
    )
    assert code == 0
    assert "(∅, {q})" in out and "({p}, {p})" in out


def test_semantics_wf_and_kk():
    code, out, _ = run("semantics", "--program", corpus_arg("negation_vs_positive_loop"), "--semantics", "wf")
    assert code == 0
    assert "({q}, {q})" in out
    code, out, _ = run("semantics", "--program", corpus_arg("negation_vs_positive_loop"), "--semantics", "kk")
    assert code == 0
    assert "(∅, {p,q})" in out


def test_wf_refuses_a_meet_of_the_stable_keys_that_is_not_stable(monkeypatch, tmp_path):
    """Ruled out for `dmt-det` by its theorem (Denecker, Marek and
    Truszczyński 2000, 2004), so forced here: with the stable keys of a
    choice program cut to its two total ones, their meet (∅, {p, q}) is not
    among them, and `wf` is refused as a precondition error."""
    program = tmp_path / "choice.lp"
    program.write_text("p :- not q.\nq :- not p.\n", encoding="utf-8")
    stable_keys = sem._stable_keys
    monkeypatch.setattr(sem, "_stable_keys", lambda kind, p: [k for k in stable_keys(kind, p) if k >> 2 == k & 3])
    assert run("semantics", "--program", str(program), "--semantics", "wf") == (
        2, "", "error: program has no information-least deterministic stable fixpoint\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["semantics", "--program", "x", "--semantics", "stable"],  # missing operator
        ["semantics", "--program", "x", "--semantics", "kk", "--operator", "ic"],
        ["semantics", "--program", "x", "--semantics", "gz-answer-sets", "--operator", "gz"],
        ["semantics", "--program", "x", "--semantics", "nope", "--operator", "ic"],
        ["eval", "--program", "x", "--operator", "ic"],  # missing pair
        ["check"],  # neither --all nor --laws
        ["check", "--laws", "exactness", "--programs", "-1"],
        ["check", "--laws", "exactness", "--rules", "0"],
        ["check", "--laws", "exactness", "--rules", "-1"],
        ["check", "--laws", ","],
        ["eval", "--program", "/nonexistent.lp", "--operator", "ic", "--pair", ";"],
        ["check", "--all", "--laws", "exactness"],  # --all would silently give way to --laws
        ["check", "--laws=exactness", "--all"],
        ["semantics", "--program", "x", "--semantics", "stable", "--operator", "ic", "--bogus"],
        ["check", "--a", "--laws", "exactness"],  # ambiguous: --all or --atoms
        ["generate", "--seed", "1.5"],
        ["check", "--laws", "nope"],  # an unknown law name
    ],
)
def test_usage_errors_exit_1(argv):
    argv = [a if a != "x" else corpus_arg("disjunctive_self_defeat") for a in argv]
    code, _, err = run(*argv)
    assert code == 1
    assert "usage error" in err


OPERATORS = (None, "ic", "dmt", "ultimate", "gz", "dmt-det", "ic-triv")
NEEDS = ((None,), "semantics {!r} needs --operator")
DMT_DET_ONLY = (("ic", "dmt", "ultimate", "gz", "ic-triv"), "semantics {!r} only works with --operator dmt-det")
NO_OPERATOR = (OPERATORS[1:], "semantics {!r} does not take an operator")
# The operator choices the CLI refused, with its message, before the check
# moved into `semantics.run_semantics`.
REFUSED_OPERATORS = {
    "fixpoints": NEEDS,
    "stable": NEEDS,
    "total-stable": NEEDS,
    "kk": DMT_DET_ONLY,
    "wf": DMT_DET_ONLY,
    "ht": NEEDS,
    "seq": NEEDS,
    "seq-approx": NEEDS,
    "three-valued-stable": NO_OPERATOR,
    "gz-answer-sets": NO_OPERATOR,
}


@pytest.mark.parametrize("semantics", REFUSED_OPERATORS)
def test_operator_choices_are_refused_once(semantics):
    # Every operator applies to this program, so a run either succeeds or is refused for its operator.
    p = corpus.load("negation_vs_positive_loop")
    refused, message = REFUSED_OPERATORS[semantics]
    for operator in OPERATORS:
        argv = ["semantics", "--program", corpus_arg("negation_vs_positive_loop"), "--semantics", semantics]
        code, _, err = run(*argv, *(["--operator", operator] if operator else []))
        kind = OperatorKind(operator) if operator else None
        if operator in refused:
            assert (code, err) == (1, f"usage error: {message.format(semantics)}\n")
            with pytest.raises(sem.SemanticsChoiceError) as refusal:
                sem.run_semantics(semantics, p, kind)
            assert str(refusal.value) == message.format(semantics)
        else:
            assert (code, err) == (0, "")
            implied = "dmt-det" if semantics in ("kk", "wf") else None
            assert sem.run_semantics(semantics, p, kind).operator == (operator or implied)


def test_class_violation_exits_2():
    code, _, err = run(
        "semantics", "--program", corpus_arg("aggregate_cycle"), "--semantics", "stable", "--operator", "ic"
    )
    assert code == 2
    assert "aggregate-free" in err


def test_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.lp"
    bad.write_text("p | .\n", encoding="utf-8")
    code, _, err = run("semantics", "--program", str(bad), "--semantics", "stable", "--operator", "ic")
    assert code == 2
    assert "line 1" in err


def test_a_program_file_that_is_not_utf8_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.lp"
    bad.write_bytes(b"p :- q.\n\xff\n")
    src = Path(cli.__file__).resolve().parents[1]
    probe = "import sys; sys.path.insert(0, sys.argv[1]); from aftlab.cli import main; sys.exit(main(sys.argv[2:]))"
    argv = ["semantics", "--program", str(bad), "--semantics", "gz-answer-sets"]
    done = subprocess.run([sys.executable, "-c", probe, str(src), *argv], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("usage error: cannot read program file: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_program_files_read_as_lf(tmp_path, newline):
    for name in corpus.names():
        copy = tmp_path / f"{name}.lp"
        copy.write_bytes(corpus.path(name).read_bytes().replace(b"\n", newline.encode()))
        for argv in (["--semantics", "gz-answer-sets"], ["--semantics", "stable", "--operator", "dmt"]):
            lf = run("semantics", "--program", corpus_arg(name), *argv, "--format", "json")
            assert lf[0] in (0, 2)
            assert run("semantics", "--program", str(copy), *argv, "--format", "json") == lf
    broken = tmp_path / "broken.lp"
    broken.write_bytes("p.\nq :- r,\n  s & .\n".replace("\n", newline).encode())
    code, _, err = run("semantics", "--program", str(broken), "--semantics", "stable", "--operator", "ic")
    assert (code, err) == (2, "error: line 2, column 7: expected '.', found ','\n")


def test_max_atoms_flag_and_env(monkeypatch, tmp_path):
    wide = tmp_path / "wide.lp"
    wide.write_text("".join(f"a{i} :- .\n" for i in range(5)), encoding="utf-8")
    argv = ["semantics", "--program", str(wide), "--semantics", "stable", "--operator", "ic"]
    assert run(*argv)[0] == 0
    monkeypatch.setenv("AFTLAB_MAX_ATOMS", "4")
    assert run(*argv)[0] == 2
    assert run(*argv, "--max-atoms", "6")[0] == 0


CHAIN = "a0.\n" + "".join(f"a{k} :- a{k - 1}.\n" for k in range(1, 23))


@pytest.mark.parametrize(
    "argv",
    [
        ["semantics", "--semantics", "kk"],
        ["eval", "--operator", "ultimate", "--pair", ";" + ",".join(f"a{k}" for k in range(23))],
    ],
)
def test_every_entry_point_refuses_a_program_above_the_cap(argv, monkeypatch, tmp_path):
    monkeypatch.delenv("AFTLAB_MAX_ATOMS", raising=False)
    chain = tmp_path / "chain.lp"
    chain.write_text(CHAIN, encoding="utf-8")
    start = time.perf_counter()
    code, _, err = run(*argv, "--program", str(chain))
    assert (code, err) == (2, "error: universe has 23 atoms, cap is 12\n")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "argv",
    [
        ["semantics", "--semantics", "kk"],
        ["semantics", "--semantics", "gz-answer-sets"],
        ["eval", "--operator", "ultimate", "--pair", ";a0,a1,a2"],
    ],
)
def test_max_atoms_lifts_the_cap(argv, monkeypatch, tmp_path):
    chain = tmp_path / "chain.lp"
    chain.write_text("a0.\na1 :- a0.\na2 :- a1.\n", encoding="utf-8")
    monkeypatch.setenv("AFTLAB_MAX_ATOMS", "2")
    assert run(*argv, "--program", str(chain))[0] == 2
    assert run(*argv, "--program", str(chain), "--max-atoms", "3")[0] == 0


def test_check_honours_max_atoms(monkeypatch):
    monkeypatch.setenv("AFTLAB_MAX_ATOMS", "2")
    code, out, _ = run("check", "--laws", "exactness", "--programs", "2", "--atoms", "3", "--max-atoms", "3")
    assert code == 0
    assert "PASS exactness" in out


def test_check_refuses_programs_above_max_atoms(monkeypatch):
    monkeypatch.delenv("AFTLAB_MAX_ATOMS", raising=False)
    code, _, err = run("check", "--laws", "exactness", "--max-atoms", "2")
    assert code == 2
    assert "cap is 2" in err


def formula_program(tmp_path, body):
    path = tmp_path / "formula.lp"
    path.write_text(f"q.\np :- {body}.\n", encoding="utf-8")
    return ["semantics", "--program", str(path), "--semantics", "fixpoints", "--operator", "ic"]


@pytest.mark.parametrize(
    "body",
    [" & ".join(["q"] * 1500), "(" * 1500 + "q" + ")" * 1500 + " & q", "not " * 1500 + "q | q"],
    ids=["conjuncts", "parentheses", "negations"],
)
def test_over_deep_formula_exits_2_without_a_traceback(tmp_path, body):
    code, out, err = run(*formula_program(tmp_path, body))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 2, column ")
    assert "nested deeper than" in err
    assert "Traceback" not in err


def test_hundred_conjunct_formula_parses_and_evaluates(tmp_path):
    code, out, err = run(*formula_program(tmp_path, " & ".join(["q"] * 100)))
    assert (code, err) == (0, "")
    assert out.endswith("models (1):\n  ({p,q}, {p,q})\n")


def test_check_selected_laws_pass():
    code, out, _ = run(
        "check", "--laws", "precision-chain,seq-nonempty", "--programs", "10"
    )
    assert code == 0
    assert "PASS precision-chain" in out
    assert "PASS seq-nonempty" in out


def test_check_reports_the_known_defect():
    code, out, _ = run("check", "--laws", "gz-answer-sets", "--programs", "5")
    assert code == 3
    assert "FAIL gz-answer-sets" in out
    assert "reproducer" in out


def test_check_runs_a_law_named_twice_once():
    code, out, _ = run("check", "--laws", "exactness,exactness", "--programs", "1")
    assert code == 0
    assert out.count("PASS exactness") == 1
    assert "OK: 1/1 laws hold" in out
    code, out, _ = run("check", "--laws", "exactness,exactness", "--programs", "1", "--format", "json")
    assert [law["name"] for law in json.loads(out)["laws"]] == ["exactness"]


def test_check_json():
    code, out, _ = run(
        "check", "--laws", "exactness", "--programs", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["laws"][0]["name"] == "exactness"


def test_generate_deterministic():
    argv = ["generate", "--atoms", "2", "--rules", "2", "--seed", "1"]
    first = run(*argv)
    assert first[0] == 0
    assert first[1] == "p :- not q, p.\np | q :- q, not p, p.\n"
    assert run(*argv) == first


@pytest.mark.parametrize(
    "option, value",
    [("--negation-probability", "2"), ("--aggregate-probability", "-1"), ("--negation-probability", "nan")],
)
def test_generate_refuses_a_probability_outside_the_unit_interval(option, value):
    code, out, err = run("generate", "--seed", "1", option, value)
    assert (code, out) == (2, "")
    assert "between 0 and 1" in err


def test_generate_json():
    code, out, _ = run("generate", "--atoms", "2", "--rules", "1", "--seed", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"] == {
        "atoms": 2, "rules": 1, "negation_probability": 0.4, "aggregate_probability": 0.0,
        "disjunction_width": 2, "seed": 3,
    }
    assert list(payload["config"]) == ["atoms", "rules", "negation_probability", "aggregate_probability",
                                       "disjunction_width", "seed"]
    assert payload["program"].endswith(".\n")


ATOMS = ("p", "q", "r", "s")
TOKENS = (":-", ".", "|", ",", ";", ":", "&", "(", ")", "{", "}", "<", ">=", "=", "not", "%", "\n",
          "#sum", "#count", "#max", "#true", "#c", "#u", "#bogus", "1", "-1", "1/0", "0.5", *ATOMS)

heads = st.lists(st.sampled_from(ATOMS), min_size=1, max_size=2).map(lambda names: tuple(sorted(set(names))))
formula_programs = st.lists(
    st.tuples(heads, _formula_strategy(ATOMS, consts=(Truth.T, Truth.F))), min_size=1, max_size=3
).map(lambda rules: make_program(tuple(Rule(head, GeneralFormula(f)) for head, f in rules)))
generated_programs = st.builds(
    GeneratorConfig,
    atoms=st.integers(1, 4),
    rules=st.integers(1, 4),
    aggregate_probability=st.sampled_from((0.0, 0.5)),
    disjunction_width=st.integers(1, 3),
    seed=st.integers(0, 10**6),
).map(generate_program)
program_texts = st.one_of(
    generated_programs.map(print_program),
    formula_programs.map(print_program),
    st.lists(st.sampled_from(TOKENS), max_size=30).map(" ".join),
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    text=program_texts,
    semantics=st.sampled_from(sem.SEMANTICS_NAMES),
    operator=st.sampled_from((None, *(k.value for k in OperatorKind))),
)
def test_every_semantics_run_exits_with_a_documented_code(tmp_path_factory, text, semantics, operator):
    path = tmp_path_factory.mktemp("program") / "program.lp"
    path.write_text(text, encoding="utf-8")
    argv = ["semantics", "--program", str(path), "--semantics", semantics]
    if operator is not None:
        argv += ["--operator", operator]
    assert run(*argv)[0] in (0, 1, 2, 3)


@given(formula_programs)
def test_print_parse_round_trips_formula_bodies(p):
    assert parse(p.text) == p


# ---------------------------------------------------------------------------
# The command table against the argparse parser it replaced
# ---------------------------------------------------------------------------


# The argparse parser that `cli.COMMANDS` and `cli.parse_args` replaced, kept
# verbatim (bar the imports and the description) as the reference the table
# reader is compared with.
class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="aftlab", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_operator: bool) -> None:
        p.add_argument("--program", required=True, help="path to a .lp program file")
        if with_operator:
            p.add_argument("--operator", choices=[k.value for k in OperatorKind])
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-atoms", type=int, default=None)

    p_eval = sub.add_parser("eval", help="apply an operator at one pair")
    common(p_eval, with_operator=True)
    p_eval.add_argument("--pair", required=True, help='pair as "x;y", atoms comma-separated per side')

    p_sem = sub.add_parser("semantics", help="run a fixpoint semantics")
    common(p_sem, with_operator=True)
    p_sem.add_argument("--semantics", required=True, choices=sem.SEMANTICS_NAMES)

    p_check = sub.add_parser("check", help="run the law suite")
    p_check.add_argument("--all", action="store_true", help="run every law")
    p_check.add_argument("--laws", help="comma-separated law names")
    p_check.add_argument("--programs", type=int, default=200, help="number of random programs")
    p_check.add_argument("--atoms", type=int, default=3)
    p_check.add_argument("--rules", type=int, default=4)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--max-atoms", type=int, default=None)

    p_gen = sub.add_parser("generate", help="generate a seeded random program")
    p_gen.add_argument("--atoms", type=int, default=3)
    p_gen.add_argument("--rules", type=int, default=3)
    p_gen.add_argument("--negation-probability", type=float, default=0.4)
    p_gen.add_argument("--aggregate-probability", type=float, default=0.0)
    p_gen.add_argument("--width", type=int, default=2, help="maximum disjunction width")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--format", choices=("text", "json"), default="text")

    return parser


reference_parser = functools.cache(build_parser)


def _namespace(args) -> dict:
    # repr, so that a NaN read by both sides compares equal
    return {key: repr(value) for key, value in vars(args).items()}


def reference_outcome(argv):
    """"refused", "help" or the parsed options, by argparse."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return _namespace(reference_parser().parse_args(argv))
    except UsageError:
        return "refused"
    except SystemExit as exc:
        assert exc.code == 0
        return "help"


def reader_outcome(argv):
    """"refused", "help" or the parsed options, by the command table."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = cli.parse_args(argv)
    except UsageError:
        return "refused"
    return "help" if args is None else _namespace(args)


REQUIRED_ARGV = {
    "eval": ["--program", "p.lp", "--pair", ";p"],
    "semantics": ["--program", "p.lp", "--semantics", "stable"],
    "check": ["--all"],
    "generate": ["--seed", "1"],
}
SAMPLE = {int: ("-7", "12"), float: ("0.25", "-.5"), str: ("x.lp", "-")}


def samples(kind):
    return kind[-2:] if isinstance(kind, tuple) else SAMPLE[kind]


def prefixes(name):
    return [name[:k] for k in range(3, len(name) + 1)]


def readme_argv():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return [shlex.split(line, comments=True) for line in re.findall(r"^aftlab (.*)$", readme, re.MULTILINE)]


def listed_argv():
    yield from readme_argv()
    operators = (None, *(k.value for k in OperatorKind))
    for semantics in sem.SEMANTICS_NAMES:
        for operator in operators:
            yield ["semantics", "--program", "p.lp", "--semantics", semantics, *(["--operator", operator] if operator else [])]
    for command, (_, options) in COMMANDS.items():
        base = [command, *REQUIRED_ARGV[command]]
        yield base
        yield [command]  # required options missing
        yield [*base, "--bogus"]
        yield [*base, "stray"]
        yield [*base, "--"]
        yield [*base, "-h"]
        yield [*base, "--", "-h"]  # everything from "--" on is unrecognized
        yield [command, "--", *REQUIRED_ARGV[command]]
        for name, (kind, _, _) in options.items():
            for spelled in prefixes(name):  # unique prefixes are read, ambiguous ones refused
                if kind is bool:
                    yield [*base, spelled]
                    yield [*base, f"{spelled}=x"]
                    continue
                first, last = samples(kind)
                yield [*base, spelled, first]
                yield [*base, f"{spelled}={first}"]
                yield [*base, spelled, first, name, last]  # the last value wins
                yield [*base, spelled]  # missing value
                yield [*base, spelled, "--format"]  # an option is no value
                yield [*base, spelled, "--"]
                yield [*base, spelled, "bogus"]  # bad number or choice
    for help_token in ("-h", "--help", "--he", "--help=x", "-h=", "-hx"):
        yield [help_token]
        yield ["semantics", help_token]
        yield ["semantics", help_token, "-h"]
        yield ["semantics", "--bogus", help_token]  # argparse leaves unknown options to the end
        yield ["semantics", "--format", "bogus", help_token]
        yield ["semantics", "--a", help_token]
        yield ["check", "--a", help_token]  # an ambiguous prefix is refused before anything runs
    yield from ([], ["bogus"], ["--"], ["-x"], ["--bogus", "check", "--all"], ["", "check"], ["-h", "bogus"],
                ["check", "--all", "--seed", "-1_0"], ["check", "--all", "--seed", "-1"], ["check", "--all", "--seed", "٣"],
                ["generate", "--seed", "1", "--width", "-1e3"], ["generate", "--seed", "1", "--atoms", " 4 "],
                ["generate", "--seed", "1", "--negation-probability", "nan"], ["eval", "--pair", "-p q", "--program", ""])


def test_reader_agrees_with_argparse_on_listed_argv():
    disagreements = [
        (argv, reader, reference)
        for argv in listed_argv()
        if (reader := reader_outcome(argv)) != (reference := reference_outcome(argv))
    ]
    assert disagreements == []
    assert len(readme_argv()) >= 7


# Where the reader deliberately departs from argparse: argv, reader, argparse.
DIFFERENCES = [
    # argparse reads "-hh" as "-h -h"; the reader refuses a value given to -h.
    (["semantics", "-hh"], "refused", "help"),
]


@pytest.mark.parametrize("argv, reader, reference", DIFFERENCES)
def test_deliberate_differences_from_argparse(argv, reader, reference):
    assert (reader_outcome(argv), reference_outcome(argv)) == (reader, reference)


def test_an_explicit_double_dash_is_a_value():
    # argparse drops the "--" of "--pair=--" and stores an empty list.
    argv = ["eval", "--program", "p.lp", "--pair=--"]
    assert reader_outcome(argv)["pair"] == repr("--")
    assert reference_outcome(argv)["pair"] == repr([])


OPTION_NAMES = sorted({name for _, options in COMMANDS.values() for name in options} | set(HELP))
CHOICES = sorted({value for _, options in COMMANDS.values() for kind, _, _ in options.values()
                  if isinstance(kind, tuple) for value in kind})
JUNK = ("", "x", "p.lp", ";p", "-", "--", "-x", "--bogus", "--=x", "-1", "-0.5", ".5", "-1e3", "1.5", "nan", "a b",
        "-a b", "--a", "--s", "--f=json", "--all=", "-h=", "-hx")
tokens = st.one_of(
    st.sampled_from(tuple(COMMANDS)),
    st.sampled_from(OPTION_NAMES),
    st.sampled_from(OPTION_NAMES).flatmap(lambda name: st.sampled_from(prefixes(name) or [name])),
    st.sampled_from(CHOICES),
    st.integers(-20, 300).map(str),
    st.sampled_from(JUNK),
)


@st.composite
def near_valid_argv(draw):
    """A command with some of its options, spelled in full, abbreviated or as
    `--name=value`, some with wrong values, and a few stray tokens."""
    command = draw(st.sampled_from(tuple(COMMANDS)))
    options = COMMANDS[command][1]
    required = [name for name, (_, default, _) in options.items() if default is cli.REQUIRED]
    names = draw(st.lists(st.sampled_from(tuple(options)), max_size=4))
    names += draw(st.sampled_from(([], required, required, required, ["--help"])))
    argv = []
    for name in draw(st.permutations(names)):
        spelled = draw(st.one_of(st.just(name), st.sampled_from(prefixes(name))))
        kind = options.get(name, (bool,))[0]
        if kind is bool:
            argv.append(spelled)
            continue
        value = draw(tokens if draw(st.sampled_from((True, False, False, False))) else st.sampled_from(samples(kind)))
        # argparse reads "--name=--" as an empty list (test_an_explicit_double_dash_is_a_value)
        argv += draw(st.sampled_from(([spelled, value], [f"{spelled}={value}"] if value != "--" else [spelled, value])))
    for token in draw(st.lists(tokens, max_size=1)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return [command, *argv]


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(tokens, max_size=8), near_valid_argv()))
def test_reader_agrees_with_argparse(argv):
    assert reader_outcome(argv) == reference_outcome(argv)


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_returns_0_and_lists_the_table(command):
    code, out, err = run(*([] if command is None else [command]), "--help")
    assert (code, err) == (0, "")
    if command is None:
        names = list(COMMANDS)
    else:
        options = COMMANDS[command][1]
        names = [*options, *(value for kind, _, _ in options.values() if isinstance(kind, tuple) for value in kind)]
    assert [name for name in names if name not in out] == []


def test_importing_the_cli_does_not_import_argparse():
    # Nor `dataclasses` or `inspect`: the value types are records (`aftlab.record`).
    # Nor `hashlib`, which loads OpenSSL: only `program.program_hash` needs it.
    # Nor `fractions` with `decimal` and `numbers`: only a fractional number needs it.
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import aftlab.cli, aftlab.laws; "
        "print(sorted(m for m in ('argparse', 'dataclasses', 'inspect', 'hashlib', 'fractions', 'decimal', 'numbers')"
        " if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-c", probe, str(src)], capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "[]\n"


def test_a_semantics_run_does_not_import_hashlib(tmp_path):
    """The program digest reads the interpreter's built-in SHA-256, so a run
    that reports it loads neither `hashlib` nor OpenSSL (`_hashlib`)."""
    path = tmp_path / "p.lp"
    path.write_text("p | q :- not r.\nr :- #count{1:p; 1:q} >= 2.\n")
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import io, json, sys; sys.path.insert(0, sys.argv[1]); import aftlab.cli; "
        "sys.stdout = io.StringIO(); "
        "code = aftlab.cli.main(['semantics', '--program', sys.argv[2], '--semantics', 'stable', '--operator', 'dmt',"
        " '--format', 'json']); "
        "out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__; "
        "print(code, json.loads(out)['program'], [m for m in ('hashlib', '_hashlib') if m in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-c", probe, str(src), str(path)], capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout == f"0 {program_hash(parse(path.read_text()))} []\n"


def test_integral_aggregates_and_the_law_suite_do_not_import_fractions(tmp_path):
    path = tmp_path / "p.lp"
    path.write_text("p | q :- #sum{2:p; -1:q} >= 1, not #count{1:q & r} = 0.\nr :- #max{1:p; 2:q} > 1.\nq.\n")
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import io, sys; sys.path.insert(0, sys.argv[1]); import aftlab.cli, aftlab.laws; "
        "sys.stdout = io.StringIO(); "
        "codes = [aftlab.cli.main(['semantics', '--program', sys.argv[2], '--semantics', s, '--operator', 'dmt'])"
        " for s in ('stable', 'fixpoints')]; "
        "outcomes = aftlab.laws.run_laws(aftlab.laws.suite_programs(20)); "
        "sys.stdout = sys.__stdout__; "
        "print(codes, sum(o.cases for o in outcomes) > 0, 'fractions' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, str(src), str(path)], capture_output=True, text=True, check=True, timeout=120
    )
    assert done.stdout == "[0, 0] True False\n"
