"""Tests of the benchmark itself (not of aftlab). Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from gen import GenProgram, Lit, Rule  # noqa: E402

run.import_aftlab(ROOT)

from aftlab import cli, corpus, operators, program as prog, semantics as sem  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Smoke runs at tiny size
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    out = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    out = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"))
    assert out["correct"]
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "four-valued", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ---------------------------------------------------------------------------
# The oracle against the corpus and against aftlab on small programs
# ---------------------------------------------------------------------------

_AGG = re.compile(r"#(\w+)\{(.*)\}\s*(<=|>=|<|>|=)\s*(\S+)")


def _split_body(body: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        depth += ch == "{"
        depth -= ch == "}"
        if ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    return [p.strip() for p in parts + [body[start:]] if p.strip()]


def _lit(text: str) -> Lit:
    negated = text.startswith("not ")
    core = text[4:].strip() if negated else text
    match = _AGG.fullmatch(core)
    if not match:
        return Lit(negated, atom=core)
    func, inner, comparator, bound = match.groups()
    entries = []
    for entry in inner.split(";"):
        weight, cond = entry.split(":")
        entries.append((int(weight), tuple(sorted(a.strip() for a in cond.split("&")))))
    return Lit(negated, agg=(func, tuple(entries), comparator, Fraction(bound)))


def corpus_program(name: str) -> GenProgram:
    """Read a corpus .lp file (one rule per line) into the oracle's form."""
    rules = []
    for line in corpus.text(name).splitlines():
        line = line.split("%")[0].strip()
        if not line:
            continue
        head, _, body = line.rstrip(".").partition(":-")
        rules.append(Rule(tuple(sorted(a.strip() for a in head.split("|"))), tuple(map(_lit, _split_body(body)))))
    atoms = {a for r in rules for a in r.head}
    for r in rules:
        for lit in r.body:
            atoms |= {lit.atom} if lit.agg is None else {a for _, cond in lit.agg[1] for a in cond}
    return GenProgram(tuple(sorted(atoms)), tuple(rules))


def _sets(sets) -> set[tuple[str, ...]]:
    return {tuple(sorted(s)) for s in sets}


@pytest.mark.parametrize("name", corpus.names())
def test_oracle_on_the_corpus(name):
    g, p = corpus_program(name), corpus.load(name)
    assert g.atoms == p.universe.atoms
    for kind in (operators.OperatorKind.DMT, operators.OperatorKind.ULTIMATE, operators.OperatorKind.GZ):
        totals = {i.lower for i in sem.fixpoints(kind, p) if i.is_total}
        assert _sets(totals) == _sets(oracle.supported(g))
    if not g.has_aggregates:
        assert _sets(sem.total_stable_fixpoints(operators.OperatorKind.IC, p)) == _sets(oracle.answer_sets(g))
        assert _sets(i.lower for i in sem.three_valued_stable(p) if i.is_total) == _sets(oracle.answer_sets(g))
        expected = {(tuple(x), tuple(y)) for x, y in oracle.ht_models(g)}
        got = {(tuple(sorted(i.lower)), tuple(sorted(i.upper))) for i in sem.ht_models_program(p)}
        assert got == expected
    elif not any(lit.negated for r in g.rules for lit in r.body if lit.agg is not None):
        assert _sets(sem.gz_answer_sets(p)) == _sets(oracle.gz_answer_sets(g))


def test_oracle_answer_sets_by_hand():
    # p | q :- not q.  has the single answer set {p}.
    g = corpus_program("disjunctive_self_defeat")
    assert oracle.answer_sets(g) == [["p"]]


@pytest.mark.parametrize("workload", ["four-valued", "interval"])
def test_checks_accept_aftlab_on_small_programs(workload, tmp_path):
    """Every check the benchmark applies holds for aftlab on 3- and 4-atom
    programs of every job kind."""
    for seed in range(3):
        for job in wl.build(workload, f"test{seed}", 1, shrink=3):
            path = tmp_path / "p.lp"
            path.write_text(job.program.text(), encoding="utf-8")
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(wl.semantics_argv(job, str(path)))
            assert wl.check_semantics(job, code, out.getvalue()) is None, job.program.text()


def test_checks_reject_a_wrong_answer(tmp_path):
    job = next(j for j in wl.build("four-valued", "reject", 1, shrink=3) if j.semantics == "stable")
    path = tmp_path / "p.lp"
    path.write_text(job.program.text(), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(wl.semantics_argv(job, str(path)))
    data = json.loads(out.getvalue())
    data["models"].append({"lower": list(job.program.atoms), "upper": list(job.program.atoms)})
    data["counts"]["models"] += 1
    assert wl.check_semantics(job, 0, json.dumps(data)) is not None


def test_malformed_outputs_fail_the_job(tmp_path):
    job = next(j for j in wl.build("interval", "malformed", 1, shrink=3) if j.semantics == "kk")
    runner = run.Runner("interval", 0, tmp_path)
    two = {"universe": list(job.program.atoms), "semantics": "kk", "operator": "dmt-det",
           "models": [{"lower": [], "upper": []}, {"lower": [], "upper": ["a"]}], "counts": {"models": 2}}
    for out in ("not json", json.dumps({"universe": list(job.program.atoms)}), json.dumps(two)):
        runner.check(job, {"code": 0, "out": out})
    assert len(runner.failures) == 3


def test_generator_is_seeded_and_covers_every_atom():
    first = wl.build("interval", 7, 2)
    again = wl.build("interval", 7, 2)
    assert [j.program.text() for j in first] == [j.program.text() for j in again]
    assert [j.program.text() for j in first] != [j.program.text() for j in wl.build("interval", 8, 2)]
    for job in first:
        p = prog.parse(job.program.text())
        assert p.universe.atoms == job.program.atoms


# ---------------------------------------------------------------------------
# Tracing is transparent and its counts repeat
# ---------------------------------------------------------------------------


def _jobs_for_tracing(tmp_path) -> tuple[run.Runner, list[wl.Job]]:
    runner = run.Runner("four-valued", 0, tmp_path)
    runner.work = tmp_path / "work"
    jobs = wl.build("four-valued", "trace", 1, shrink=2) + wl.build("interval", "trace", 1, shrink=3)
    jobs += wl.build("law-suite", "trace", 1)
    runner.prepare(jobs)
    return runner, jobs


def _counts(result: dict) -> tuple:
    nodes = [(name, parent, calls) for name, parent, calls, _, _ in result["trace"]["nodes"]]
    counts = {k: v for k, v in result["trace"]["counts"].items() if not k.endswith("_s")}
    return nodes, counts, result["trace"]["memo_entries"]


def test_tracing_is_transparent_and_counts_repeat(tmp_path):
    runner, jobs = _jobs_for_tracing(tmp_path)
    for job in jobs:
        plain, _ = runner.run(job)
        traced, _ = runner.run(job, traced=True)
        again, _ = runner.run(job, traced=True)
        assert "error" not in plain and "error" not in traced, (job.name, plain, traced)
        assert traced["out"] == plain["out"], job.name
        assert _counts(traced) == _counts(again), job.name
    assert not runner.failures


def test_traced_spans_cover_the_layers(tmp_path):
    runner, jobs = _jobs_for_tracing(tmp_path)
    names = set()
    for job in jobs:
        result, _ = runner.run(job, traced=True)
        names |= {node[0] for node in result["trace"]["nodes"]}
    for expected in ("cli.main", "render", "program.parse", "four.eval_pair", "lattice.interval",
                     "lattice.consistent_pairs", "operators.apply.ic", "operators.apply.dmt-det",
                     "operators.hitting_sets", "operators.hd", "semantics.stable_fixpoints",
                     "laws.monotonicity", "laws.run_laws"):
        assert expected in names
