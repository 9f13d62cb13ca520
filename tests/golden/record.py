"""Record the CLI snapshot that `tests/test_golden.py` compares against.

Runs `aftlab semantics --format json` for every semantics, and for the
operator-based ones under every operator, on the corpus programs and on
seeded generator programs. A refused combination is recorded by its exit code
and error line. One JSON file per program is written next to this script.

Re-record only from a commit whose outputs are known to be right:

    PYTHONPATH=src python3 tests/golden/record.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from aftlab import cli, corpus
from aftlab.generator import GeneratorConfig, generate_program
from aftlab.operators import OperatorKind
from aftlab.semantics import ANY_OPERATOR, SEMANTICS

GOLDEN_DIR = Path(__file__).parent
SEEDS = range(50)


def seeded_config(seed: int) -> GeneratorConfig:
    """2 to 5 atoms; odd seeds draw aggregates, even seeds none."""
    atoms = 2 + (seed // 2) % 4
    return GeneratorConfig(
        atoms=atoms,
        rules=atoms,
        aggregate_probability=0.5 if seed % 2 else 0.0,
        seed=seed,
    )


def programs() -> dict[str, str]:
    """Snapshot name -> program text."""
    out = {f"corpus_{name}": corpus.text(name) for name in corpus.names()}
    for seed in SEEDS:
        out[f"seed_{seed:02d}"] = generate_program(seeded_config(seed)).text
    return out


def combinations() -> list[list[str]]:
    """CLI argument tails: every semantics, each operator-based one under
    every operator."""
    out = []
    for name, (takes, _) in SEMANTICS.items():
        if takes == ANY_OPERATOR:
            out.extend(["--semantics", name, "--operator", kind.value] for kind in OperatorKind)
        else:
            out.append(["--semantics", name])
    return out


def render(output: object) -> str:
    """The exact bytes the CLI prints for a JSON payload."""
    return json.dumps(output, indent=2) + "\n"


def run(path: str, tail: list[str]) -> dict:
    """One CLI run: the parsed JSON output on success, else the exit code and
    the error text. The output is stored parsed, which is only sound because
    `render` gives back its bytes exactly; that is checked here."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["semantics", "--program", path, "--format", "json", *tail])
    if code != 0:
        return {"exit": code, "stderr": err.getvalue()}
    output = json.loads(out.getvalue())
    if render(output) != out.getvalue():
        raise AssertionError(f"output of {tail} does not round-trip through JSON")
    return {"exit": 0, "output": output}


def snapshot(text: str, workdir: Path) -> dict:
    path = workdir / "program.lp"
    path.write_text(text, encoding="utf-8")
    return {"program": text, "runs": {" ".join(tail): run(str(path), tail) for tail in combinations()}}


def dump(data: dict) -> str:
    """JSON with one line per run, so a changed output shows as one changed line."""
    runs = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in data["runs"].items())
    return f'{{"program": {json.dumps(data["program"])},\n "runs": {{\n{runs}\n }}}}\n'


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in programs().items():
            (GOLDEN_DIR / f"{name}.json").write_text(dump(snapshot(text, Path(tmp))), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
