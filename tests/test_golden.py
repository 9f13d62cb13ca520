"""CLI snapshot: every semantics under every operator on the corpus and on
seeded generator programs must print exactly what `tests/golden/` recorded,
or be refused with the recorded exit code and error text."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from aftlab import cli

GOLDEN_DIR = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_record", GOLDEN_DIR / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

SNAPSHOTS = sorted(path.stem for path in GOLDEN_DIR.glob("*.json"))


def test_snapshot_covers_every_program_and_combination():
    assert SNAPSHOTS == sorted(record.programs())
    keys = {" ".join(tail) for tail in record.combinations()}
    for name in SNAPSHOTS:
        data = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
        assert data["program"] == record.programs()[name]
        assert set(data["runs"]) == keys


@pytest.mark.parametrize("name", SNAPSHOTS)
def test_snapshot(name, tmp_path):
    data = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    path = tmp_path / "program.lp"
    path.write_text(data["program"], encoding="utf-8")
    for key, expected in data["runs"].items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["semantics", "--program", str(path), "--format", "json", *key.split()])
        assert code == expected["exit"], key
        if code == 0:
            assert out.getvalue() == record.render(expected["output"]), key
        else:
            assert (out.getvalue(), err.getvalue()) == ("", expected["stderr"]), key
