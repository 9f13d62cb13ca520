"""`render.write_semantics`, the writer of `aftlab semantics`, must give the
bytes the CLI printed before it: `print(json.dumps(semantics_json(...),
indent=2))` and one `print` per text line. `semantics_json` and
`semantics_text` below are those outputs, kept as the reference. A failed
write to standard output exits 2 without a traceback, and a closed pipe ends
quietly."""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from aftlab import cli, corpus, render, semantics as sem
from aftlab.generator import GeneratorConfig, generate_program
from aftlab.lattice import AftlabError, AtomUniverse
from aftlab.operators import OperatorKind
from aftlab.program import parse
from aftlab.semantics import SemanticsResult
from test_bench_matrix import TAKES

SRC = Path(__file__).resolve().parents[1] / "src"
# Every semantics with every operator the table accepts for it.
COMBINATIONS = [(name, op and OperatorKind(op)) for name, (takes, _) in sem.SEMANTICS.items() for op in TAKES[takes]]
# One HT model per consistent pair: 3^8 = 6561 models, two chunks of 4096.
VACUOUS_8 = "".join(f"a{i} :- a{i}.\n" for i in range(8))


def semantics_json(result: SemanticsResult, u: AtomUniverse) -> dict:
    return {
        "universe": list(result.universe),
        "operator": result.operator,
        "semantics": result.kind,
        "models": [render.json_pair(u, i) for i in result.models],
        "counts": {
            "models": len(result.models),
            "consistent_pairs": 3 ** len(result.universe),
        },
        "program": result.program_digest,
    }


def semantics_text(result: SemanticsResult, u: AtomUniverse) -> str:
    lines = [f"semantics: {result.kind}", f"operator: {result.operator or '-'}",
             f"universe: {render.fmt_set(u, u.full())}", f"models ({len(result.models)}):"]
    lines += [f"  {render.fmt_pair(u, i)}" for i in result.models]
    return "".join(line + "\n" for line in lines)


class Recorder(io.StringIO):
    """A stdout that also keeps each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def written(result: SemanticsResult, form: str) -> Recorder:
    out = Recorder()
    with contextlib.redirect_stdout(out):
        render.write_semantics(result, form)
    return out


def assert_same_text(got: str, want: str) -> None:
    """Report the first difference only: pytest's diff of two outputs this
    large takes minutes."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"differs at {at}: {got[at - 60:at + 60]!r} != {want[at - 60:at + 60]!r}")


def assert_same_bytes(result: SemanticsResult, u: AtomUniverse) -> None:
    assert_same_text(written(result, "json").getvalue(), json.dumps(semantics_json(result, u), indent=2) + "\n")
    assert_same_text(written(result, "text").getvalue(), semantics_text(result, u))


def assert_same_bytes_everywhere(p) -> int:
    """Compare under every accepted combination the program's class admits;
    the number compared."""
    compared = 0
    for name, kind in COMBINATIONS:
        try:
            result = sem.run_semantics(name, p, kind)
        except AftlabError:
            continue
        assert_same_bytes(result, p.universe)
        compared += 1
    return compared


@pytest.mark.parametrize("name", corpus.names())
def test_corpus_programs(name):
    assert assert_same_bytes_everywhere(corpus.load(name)) > 0


@pytest.mark.parametrize("aggregates", [0.0, 0.5])
@pytest.mark.parametrize("atoms", range(1, 7))
def test_seeded_programs(atoms, aggregates):
    config = GeneratorConfig(atoms=atoms, rules=atoms, aggregate_probability=aggregates, seed=24000 + atoms)
    p = generate_program(config)
    assert assert_same_bytes_everywhere(p) > 0


@pytest.mark.parametrize("text, universe", [
    ("", "[]"),
    ("p :- not p.", None),
    ("π :- not ρ.", '"\\u03c0"'),
])
def test_edge_programs(text, universe):
    p = parse(text)
    assert assert_same_bytes_everywhere(p) > 0
    result = sem.run_semantics("total-stable", p, OperatorKind.IC)
    out = written(result, "json").getvalue()
    if universe is None:
        assert '"models": []' in out  # `p :- not p.` has no total stable model
    else:
        assert universe in out


def test_an_output_of_several_chunks():
    p = parse(VACUOUS_8)
    result = sem.run_semantics("ht", p, OperatorKind.IC)
    assert len(result.models) == 3 ** 8
    assert_same_bytes(result, p.universe)
    # The head, one write per chunk of models, the tail.
    assert len(written(result, "json").writes) == 2 + 2


def test_small_chunks_join_as_one(monkeypatch):
    p = generate_program(GeneratorConfig(atoms=4, rules=4, seed=4))
    result = sem.run_semantics("ht", p, OperatorKind.GZ)
    monkeypatch.setattr(render, "_CHUNK", 3)
    assert len(result.models) > 3
    assert_same_bytes(result, p.universe)


def run_cli(argv: list[str], stdout) -> subprocess.Popen:
    """The CLI in a child whose stdout is buffered, as by default, so that
    output can be left for the interpreter's flush at exit."""
    code = "import sys; from aftlab.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.Popen([sys.executable, "-c", code, *argv], stdout=stdout, stderr=subprocess.PIPE, env=env)


def test_a_pipe_closed_midway_ends_quietly_with_exit_2(tmp_path):
    program = tmp_path / "vacuous.lp"
    program.write_text(VACUOUS_8, encoding="utf-8")
    proc = run_cli(["semantics", "--program", str(program), "--semantics", "ht", "--operator", "ic",
                    "--format", "json"], subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()  # about 0.6 MB is still to come
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (2, b"")


STABLE_IC = ["semantics", "--program", str(corpus.path("disjunctive_self_defeat")), "--semantics", "stable",
             "--operator", "ic"]


@pytest.mark.parametrize("argv", [STABLE_IC, ["--help"]])
def test_a_pipe_closed_before_any_write_ends_quietly_with_exit_2(argv):
    """The output fits in stdout's buffer, so it fails in `main`'s flush and
    again in the interpreter's flush at exit unless fd 1 is moved aside."""
    read, write = os.pipe()
    os.close(read)
    proc = run_cli(argv, write)
    os.close(write)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (2, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("form", ["json", "text"])
def test_a_failed_write_is_one_error_line_and_exit_2(form):
    with open("/dev/full", "wb") as full:
        proc = run_cli([*STABLE_IC, "--format", form], full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.decode() == f"error: cannot write output: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n"


class FailingStdout(io.StringIO):
    def __init__(self, error: OSError):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize("error, stderr", [
    (BrokenPipeError(errno.EPIPE, "Broken pipe"), ""),
    (OSError(errno.ENOSPC, "No space left on device"),
     "error: cannot write output: [Errno 28] No space left on device\n"),
])
def test_a_failed_write_in_process(error, stderr):
    err = io.StringIO()
    with contextlib.redirect_stdout(FailingStdout(error)), contextlib.redirect_stderr(err):
        assert cli.main(STABLE_IC) == cli.EXIT_PRECONDITION
    assert err.getvalue() == stderr
