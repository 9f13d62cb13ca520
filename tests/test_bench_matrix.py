"""The bench matrix (`tools/bench_matrix.py`) keeps its own copy of the
semantics table, so that two checkouts are timed on the same cells. A
semantics or an operator added to the table must still get its row there.
It compiles the tree it times before the first cell."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from aftlab import semantics as sem
from aftlab.operators import OperatorKind

BENCH_MATRIX = Path(__file__).resolve().parents[1] / "tools" / "bench_matrix.py"

TAKES = {
    sem.ANY_OPERATOR: [kind.value for kind in OperatorKind],
    sem.DETERMINISTIC_OPERATOR: [OperatorKind.DMT_DET.value],
    sem.NO_OPERATOR: [None],
}


def load_matrix():
    spec = importlib.util.spec_from_file_location("bench_matrix", BENCH_MATRIX)
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    return matrix


def test_the_matrix_has_each_semantics_with_each_operator_it_takes():
    matrix = load_matrix()
    expected = [(name, op) for name, (takes, _) in sem.SEMANTICS.items() for op in TAKES[takes]]
    assert sorted(matrix.ROWS, key=str) == sorted(expected, key=str)


def test_the_src_tree_is_compiled_before_the_first_cell(tmp_path, monkeypatch):
    """Every cell, the first included, finds a bytecode cache of each module
    of the `--src` tree, and the output header says that it was compiled."""
    matrix = load_matrix()
    package = tmp_path / "src" / "aftlab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def main(argv):\n    return 0\n")
    cached = []

    def cell(src, argv):
        cached.append({path.name.split(".")[0] for path in (package / "__pycache__").glob("*.pyc")})
        return {"seconds": 0.0, "engine_s": 0.0, "exit": 0, "output": ""}, '{"counts": {"models": 0}}'

    monkeypatch.setattr(matrix, "measure_cell", cell)
    monkeypatch.setattr(matrix, "program_file", lambda *args: "program.lp")
    monkeypatch.chdir(tmp_path)
    assert matrix.main(["--label", "compiled", "--src", str(package.parent)]) == 0
    assert cached and all(names == {"__init__", "cli"} for names in cached)
    assert "compileall" in json.loads((tmp_path / "BENCH_compiled.json").read_text())["bytecode"]
