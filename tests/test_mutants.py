"""The mutation check (`tools/mutants.py`) names each mutant by an exact old
text in a file. A text that no longer occurs exactly once makes the mutant
stale: the tool reports it and never runs it, so a change that reshapes the
code re-expresses the entries it touches. The tool's exit code gates on
survived and stale mutants."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = ROOT / "tools" / "mutants.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants_tool", MUTANTS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_mutant_old_text_occurs_exactly_once_in_its_file():
    tool = load_tool()
    assert len(tool.MUTANTS) >= 46
    counts = {name: (ROOT / path).read_text(encoding="utf-8").count(old)
              for name, (path, old, new, _) in tool.MUTANTS.items()}
    assert {name: count for name, count in counts.items() if count != 1} == {}
    assert all(old != new for _, old, new, _ in tool.MUTANTS.values())


@pytest.mark.parametrize("statuses, code", [
    (("killed", "killed"), 0),
    (("killed", "survived"), 1),
    (("stale", "killed"), 1),
])
def test_the_tool_writes_its_record_then_exits_1_on_a_survived_or_stale_mutant(
        tmp_path, monkeypatch, statuses, code):
    """The suite runs are stubbed: the unmutated tree passes and the two
    mutants get the given statuses."""
    tool = load_tool()
    names = list(tool.MUTANTS)[:2]
    monkeypatch.setattr(tool, "MUTANTS", {name: tool.MUTANTS[name] for name in names})
    results = iter([{"status": "survived", "first_failure": None, "seconds": 0.0}]
                   + [{"status": status, "first_failure": None, "seconds": 0.0} for status in statuses])
    monkeypatch.setattr(tool, "run_one", lambda patch: next(results))
    monkeypatch.chdir(tmp_path)
    assert tool.main(["--label", "stub"]) == code
    record = json.loads((tmp_path / "MUTANTS_stub.json").read_text(encoding="utf-8"))
    assert [record["mutants"][name]["status"] for name in names] == list(statuses)


def test_the_tool_stops_with_exit_code_2_when_the_unmutated_tree_fails(tmp_path, monkeypatch):
    tool = load_tool()
    monkeypatch.setattr(tool, "run_one", lambda patch: {"status": "killed", "first_failure": "t", "seconds": 0.0})
    monkeypatch.chdir(tmp_path)
    assert tool.main(["--label", "stub"]) == 2
    assert not (tmp_path / "MUTANTS_stub.json").exists()
