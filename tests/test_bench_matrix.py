"""The bench matrix (`tools/bench_matrix.py`) keeps its own copy of the
semantics table, so that two checkouts are timed on the same cells. A
semantics or an operator added to the table must still get its row there,
and each operator its `eval` cell. It compiles the tree it times before the
first cell and leaves no cache there afterwards, and runs the law suite at
each size of its law cells."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

from aftlab import cli
from aftlab.operators import OperatorKind
from conftest import SEMANTICS_CELLS

BENCH_MATRIX = Path(__file__).resolve().parents[1] / "tools" / "bench_matrix.py"


def load_matrix():
    spec = importlib.util.spec_from_file_location("bench_matrix", BENCH_MATRIX)
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    return matrix


def test_the_matrix_has_each_semantics_with_each_operator_it_takes():
    matrix = load_matrix()
    expected = [(name, kind and kind.value) for name, kind in SEMANTICS_CELLS]
    assert sorted(matrix.ROWS, key=str) == sorted(expected, key=str)


def test_each_operator_has_an_eval_cell_at_the_full_pair(tmp_path, monkeypatch):
    """`eval` at (∅, A) on the n=12 program of each series that the rows of
    the operator read: width 1 for `dmt-det`, and `ic` on the plain series
    only."""
    matrix = load_matrix()
    asked = []

    def cell(src, argv):
        asked.append(argv)
        return {"seconds": 0.0, "engine_s": 0.0, "exit": 0, "output": ""}, "{}"

    monkeypatch.setattr(matrix, "measure_cell", cell)
    monkeypatch.setattr(matrix, "program_file", lambda src, tmp, n, width, aggregates, positive:
                        f"n{n}-w{width}-a{aggregates}-{positive}.lp")
    monkeypatch.setattr(matrix, "universe", lambda src, program: ["p", "q"])
    cells = matrix.eval_cells(tmp_path, tmp_path)
    for kind in OperatorKind:
        width = 1 if kind is OperatorKind.DMT_DET else 2
        for aggregates in (0.0, matrix.AGGREGATE_PROBABILITY)[: 1 if kind is OperatorKind.IC else 2]:
            argv = ["eval", "--program", f"n12-w{width}-a{aggregates}-False.lp", "--operator", kind.value,
                    "--pair", ";p,q", "--format", "json"]
            assert argv in asked, (kind, aggregates)
    assert len(cells) == len(asked) == 2 * len(OperatorKind) - 1
    assert all(c["n"] == 12 and c["exit"] == 0 for c in cells)


def test_the_src_tree_is_compiled_before_the_first_cell(tmp_path, monkeypatch):
    """Every cell, the first included, finds a bytecode cache of each module
    of the `--src` tree, and the output header says that it was compiled.
    Once the matrix returns, the tree holds no cache: a run from the same
    tree afterwards would otherwise start from bytecode."""
    matrix = load_matrix()
    package = tmp_path / "src" / "aftlab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def main(argv):\n    return 0\n")
    cached = []

    def cell(src, argv):
        cached.append({path.name.split(".")[0] for path in (package / "__pycache__").glob("*.pyc")})
        return {"seconds": 0.0, "engine_s": 0.0, "exit": 0, "output": ""}, '{"counts": {"models": 0}, "laws": []}'

    monkeypatch.setattr(matrix, "measure_cell", cell)
    monkeypatch.setattr(matrix, "program_file", lambda *args: "program.lp")
    monkeypatch.setattr(matrix, "universe", lambda *args: ["p"])
    monkeypatch.chdir(tmp_path)
    assert matrix.main(["--label", "compiled", "--src", str(package.parent)]) == 0
    assert cached and all(names == {"__init__", "cli"} for names in cached)
    assert "compileall" in json.loads((tmp_path / "BENCH_compiled.json").read_text())["bytecode"]
    assert not list(package.parent.rglob("__pycache__"))


def test_the_law_cells_run_the_law_suite_at_each_size(tmp_path, monkeypatch):
    """`check --all` on LAW_PROGRAMS random programs of n atoms and up to n
    rules, n = 4..8, each cell recording every law's name, ok and cases; the
    cells stop at the first timeout, as a row does."""
    matrix = load_matrix()
    assert list(matrix.LAW_ATOMS) == [4, 5, 6, 7, 8]
    args = cli.parse_args(matrix.law_argv(8))
    assert (args.command, args.all, args.atoms, args.rules, args.programs, args.format) == (
        "check", True, 8, 8, matrix.LAW_PROGRAMS, "json")
    report = {"ok": False, "laws": [{"name": "exactness", "ok": True, "cases": 9, "failure": None},
                                    {"name": "gz-answer-sets", "ok": False, "cases": 1, "failure": "x"}]}
    asked = []

    def cell(src, argv):
        asked.append(argv)
        if argv[3] == "7":
            raise subprocess.TimeoutExpired(argv, matrix.TIMEOUT_S)
        return {"seconds": 0.0, "engine_s": 0.0, "exit": 3, "output": ""}, json.dumps(report)

    monkeypatch.setattr(matrix, "measure_cell", cell)
    cells = matrix.law_cells(tmp_path)
    assert asked == [matrix.law_argv(n) for n in (4, 5, 6, 7)]
    laws = [["exactness", True, 9], ["gz-answer-sets", False, 1]]
    assert cells == [*({"n": n, "seconds": 0.0, "engine_s": 0.0, "exit": 3, "output": "", "laws": laws}
                       for n in (4, 5, 6)), {"n": 7, "timeout": True}]
