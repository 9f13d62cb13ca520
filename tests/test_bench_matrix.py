"""The bench matrix (`tools/bench_matrix.py`) keeps its own copy of the
semantics table, so that two checkouts are timed on the same cells. A
semantics or an operator added to the table must still get its row there."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from aftlab import semantics as sem
from aftlab.operators import OperatorKind

BENCH_MATRIX = Path(__file__).resolve().parents[1] / "tools" / "bench_matrix.py"

TAKES = {
    sem.ANY_OPERATOR: [kind.value for kind in OperatorKind],
    sem.DETERMINISTIC_OPERATOR: [OperatorKind.DMT_DET.value],
    sem.NO_OPERATOR: [None],
}


def test_the_matrix_has_each_semantics_with_each_operator_it_takes():
    spec = importlib.util.spec_from_file_location("bench_matrix", BENCH_MATRIX)
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    expected = [(name, op) for name, (takes, _) in sem.SEMANTICS.items() for op in TAKES[takes]]
    assert sorted(matrix.ROWS, key=str) == sorted(expected, key=str)
