"""End-to-end timing matrix of `aftlab semantics`: every semantics under
every operator it takes, on seeded generator programs with n = 4..12 atoms.

    python3 tools/bench_matrix.py --label pr6
    python3 tools/bench_matrix.py --label pr5 --src /path/to/other/checkout/src

Each cell is one fresh interpreter running `aftlab.cli.main(["semantics",
..., "--format", "json"])` on the program of `aftlab generate --atoms n
--rules n --width 2 --seed n`, timed from fork to exit, start-up included.
The `dmt-det` rows use `--width 1` instead: the deterministic operator needs
atomic heads, and every width-2 program of this series has a disjunctive one.
A second series (rows marked `"series": "aggregates"`) runs the operators
defined on aggregates, and GZ answer sets, on the programs of the same
commands with `--aggregate-probability 0.5` added. GZ answer sets refuse a
negated aggregate, so their row of that series (marked
`"negation_probability": 0`) also adds `--negation-probability 0`, which
makes every aggregate, and every literal, positive. A cell gets TIMEOUT_S
seconds; a row stops at its first timeout, since larger programs only take
longer, and goes on past a cell that exits non-zero, with its exit code
recorded. The output file
`BENCH_<label>.json` records per cell the seconds, the peak resident MB (the
interpreter's `ru_maxrss`, read with `os.wait4`), the exit code, the model
count and a digest of the output, so two files can be checked for identical
answers as well as compared for time and memory. One more cell, `law_suite`,
runs the whole law suite, `aftlab check --all --format json`, the same way;
it exits 3, because one law fails by design (README "Known defect"). And one,
`text_cell`, runs `semantics --semantics ht --operator gz --format text` on
the n=12 program of the aggregates series, the largest output of the matrix,
so that the bytes of the text form are checked too. The `eval_cells` time
the one-pair reader, `operators.apply`: `eval --operator K --pair "∅;A"
--format json` on the n=12 program of each series, A its universe, once per
operator that the series' rows take, with the same programs as those rows.
The `law_cells` run the law suite at the sizes of the matrix: `check --all
--atoms n --rules n --programs LAW_PROGRAMS --format json` for n in
LAW_ATOMS, each recording every law's `(ok, cases)` besides the seconds and
peak MB; like a row, they stop at the first timeout.

Each cell also records `engine_s`, the time of the `main(...)` call alone,
taken inside the interpreter after its imports and sent to the launcher over
a pipe of its own, so the output, whose digest is recorded, stays as it is.
It leaves out interpreter start-up and the imports of `aftlab.cli`, most of
a cell that takes 0.1-0.15 s.

The host's speed drifts between phases of a run, so each cell also records
`reference_s`: the time of a fixed pure-Python loop (`reference_loop`), the
fastest of REFERENCE_TRIES tries taken right before the cell and of as many
right after it, averaged. The rows printed while the matrix runs give each
cell's `engine_s`; two files are compared on that, or on seconds / reference_s,
or on seconds scaled by that ratio to one loop time. Standard library only,
Linux; run it from the root of a checkout.

Before the first cell the `--src` tree is compiled (`compileall`, quiet), so
every cell starts from bytecode caches. When the environment sets
PYTHONDONTWRITEBYTECODE, a tree without them compiles each module in each
cell, about 45 ms a cell on a 2-vCPU x86_64 host; compiled first, two trees
are timed alike whether or not they held caches before. The output header
says so. Once the last cell has run, or the run has stopped, the caches
that were not in the tree before are deleted, so that what runs from the
tree afterwards, such as a benchmark pair, finds it as it was.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TIMEOUT_S = 30
REFERENCE_TRIES = 2
ATOMS = range(4, 13)
OPERATORS = ("ic", "ic-triv", "dmt", "ultimate", "gz", "dmt-det")
OPERATOR_BASED = ("fixpoints", "stable", "total-stable", "ht", "seq", "seq-approx")
ROWS = (
    [(s, op) for op in OPERATORS for s in OPERATOR_BASED]
    + [("kk", "dmt-det"), ("wf", "dmt-det"), ("three-valued-stable", None), ("gz-answer-sets", None)]
)
AGGREGATE_PROBABILITY = 0.5
# The operators defined on aggregates: all but `ic`.
AGGREGATE_OPERATORS = ("ic-triv", "dmt", "ultimate", "gz", "dmt-det")
AGGREGATE_ROWS = (
    [(s, op) for op in AGGREGATE_OPERATORS for s in OPERATOR_BASED]
    + [("kk", "dmt-det"), ("wf", "dmt-det"), ("gz-answer-sets", None)]
)
# Rows of the aggregates series whose programs have no negation at all.
POSITIVE_AGGREGATE_ROWS = {("gz-answer-sets", None)}
LAW_SUITE = ["check", "--all", "--format", "json"]
LAW_ATOMS = range(4, 9)
# Random programs per law cell: at 64, the n=8 cell took about 10 s of the
# 30 s timeout, on a 2-vCPU host, before `operators.values` read the
# four-valued operators on per-set rule ints.
LAW_PROGRAMS = 64
# The text cell's argv, after `--program` and the n=12 program of the aggregates series.
TEXT_CELL = ["--semantics", "ht", "--operator", "gz", "--format", "text"]
# A cell: its first argument is the pipe to write the seconds of `main` to.
RUN = (
    "import os, sys, time; sys.path.insert(0, sys.argv[2]); from aftlab.cli import main; start = time.perf_counter();"
    " code = main(sys.argv[3:]); os.write(int(sys.argv[1]), repr(time.perf_counter() - start).encode()); sys.exit(code)"
)
# Each cell runs under a small launcher, which forks and execs it and reports
# its exit code, seconds, peak resident kilobytes (`os.wait4`) and the
# seconds of `main` the cell wrote to its pipe ("nan" if none). Linux carries
# the peak of the address space that exec replaces over into the new
# program's, so a cell spawned from this process would report this process's
# peak, which grows with the outputs it reads, whenever that is larger.
LAUNCH = """
import os, signal, sys, time
start = time.perf_counter()
read, write = os.pipe()
pid = os.fork()
if pid == 0:
    os.close(read)
    os.set_inheritable(write, True)
    os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
    os.execv(sys.executable, [sys.executable, "-c", sys.argv[2], str(write), *sys.argv[3:]])
os.close(write)
signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
signal.alarm(int(sys.argv[1]))
_, status, usage = os.wait4(pid, 0)
seconds = time.perf_counter() - start
engine = os.read(read, 64).decode() or "nan"
print(os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss, engine, file=sys.stderr)
"""


def run_cli(src: Path, argv: list[str], timeout: int = 0) -> tuple[int, str, float, float, float]:
    """Exit code, standard output, wall seconds, peak resident MB and seconds
    of `main` of one interpreter; raises `subprocess.TimeoutExpired` after
    `timeout` seconds (0: none)."""
    with tempfile.TemporaryFile() as out:
        done = subprocess.run([sys.executable, "-c", LAUNCH, str(timeout), RUN, str(src), *argv], stdout=out,
                              stderr=subprocess.PIPE, text=True, check=True)
        code, seconds, rss_kb, engine_s = done.stderr.split()
        if timeout and float(seconds) >= timeout:
            raise subprocess.TimeoutExpired(argv, timeout)
        out.seek(0)
        # ru_maxrss is in kilobytes on Linux.
        return int(code), out.read().decode(), float(seconds), int(rss_kb) / 1024, float(engine_s)


def reference_loop() -> int:
    """Fixed work in the style of aftlab's inner loops: frozensets, tuples,
    hashing and dict updates; it uses no aftlab code, so a change to aftlab
    moves the cells and not the loop."""
    seen: dict = {}
    acc = 0
    for i in range(6000):
        key = frozenset((i & 15, (i >> 2) & 15, (i >> 4) & 7))
        pair = (key, i & 63)
        seen[pair] = seen.get(pair, 0) + 1
        acc += len(key & {1, 2, 3, 4}) + hash(pair) % 3
    return acc


def reference_s() -> float:
    """The fastest of REFERENCE_TRIES timings of reference_loop()."""
    times = []
    for _ in range(REFERENCE_TRIES):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return min(times)


def program_file(src: Path, tmp: Path, n: int, width: int, aggregates: float, positive: bool) -> str:
    path = tmp / f"n{n}-w{width}-a{aggregates}{'-positive' if positive else ''}.lp"
    if not path.exists():
        argv = ["generate", "--atoms", str(n), "--rules", str(n), "--width", str(width), "--seed", str(n)]
        if aggregates:
            argv += ["--aggregate-probability", str(aggregates)]
        if positive:
            argv += ["--negation-probability", "0"]
        code, text, _, _, _ = run_cli(src, argv)
        if code != 0:
            raise SystemExit(f"generate failed for n={n}, width={width}, aggregates={aggregates}, positive={positive}")
        path.write_text(text, encoding="utf-8")
    return str(path)


def universe(src: Path, program: str) -> list[str]:
    """The program's atoms, as `eval` prints them at the pair (∅, ∅)."""
    code, text, _, _, _ = run_cli(src, ["eval", "--program", program, "--operator", "gz", "--pair", ";",
                                        "--format", "json"])
    if code != 0:
        raise SystemExit(f"eval failed on {program}")
    return json.loads(text)["universe"]


def compile_tree(src: Path) -> bool:
    """Write the bytecode caches of every module under src; False if one did
    not compile."""
    return compileall.compile_dir(str(src), quiet=1)


def caches(src: Path) -> set[Path]:
    """The bytecode caches under src."""
    return set(src.rglob("__pycache__/*.pyc"))


def remove_caches(src: Path, kept: set[Path]) -> None:
    """Delete the caches under src that are not in kept, and each
    `__pycache__` directory that this leaves empty."""
    for path in caches(src) - kept:
        path.unlink()
        if not any(path.parent.iterdir()):
            path.parent.rmdir()


def measure_cell(src: Path, argv: list[str]) -> tuple[dict, str]:
    """One cell and its output; raises `subprocess.TimeoutExpired`."""
    ref_before = reference_s()
    code, out, seconds, rss_mb, engine_s = run_cli(src, argv, TIMEOUT_S)
    ref = (ref_before + reference_s()) / 2
    cell = {"seconds": round(seconds, 3), "engine_s": round(engine_s, 4), "reference_s": round(ref, 5),
            "peak_rss_mb": round(rss_mb, 1), "exit": code, "output": hashlib.sha256(out.encode()).hexdigest()[:16]}
    return cell, out


def measure_row(src: Path, tmp: Path, semantics: str, operator: str | None, aggregates: float,
                positive: bool) -> list[dict]:
    cells = []
    for n in ATOMS:
        program = program_file(src, tmp, n, 1 if operator == "dmt-det" else 2, aggregates, positive)
        argv = ["semantics", "--program", program, "--semantics", semantics, "--format", "json"]
        if operator is not None:
            argv += ["--operator", operator]
        try:
            cell, out = measure_cell(src, argv)
        except subprocess.TimeoutExpired:
            cells.append({"n": n, "timeout": True})
            break
        cell = {"n": n, **cell}
        if cell["exit"] == 0:
            cell["models"] = json.loads(out)["counts"]["models"]
        cells.append(cell)
    return cells


def eval_cells(src: Path, tmp: Path) -> list[dict]:
    """One `eval` cell per operator and series at the pair (∅, A) of the
    series' n=12 program (width 1 for `dmt-det`)."""
    cells = []
    for aggregates, operators in ((0.0, OPERATORS), (AGGREGATE_PROBABILITY, AGGREGATE_OPERATORS)):
        for operator in operators:
            program = program_file(src, tmp, ATOMS[-1], 1 if operator == "dmt-det" else 2, aggregates, False)
            pair = ";" + ",".join(universe(src, program))
            argv = ["eval", "--program", program, "--operator", operator, "--pair", pair, "--format", "json"]
            try:
                cell, _ = measure_cell(src, argv)
            except subprocess.TimeoutExpired:
                cell = {"timeout": True}
            cell = {"operator": operator, "n": ATOMS[-1], **cell}
            if aggregates:
                cell["series"] = "aggregates"
            cells.append(cell)
            print(cell.get("series", "plain"), "eval", operator, cell.get("engine_s", "T/O"), cell.get("exit", ""),
                  flush=True)
    return cells


def law_argv(n: int | str) -> list[str]:
    """The argv of the law cell with n atoms; `law_argv("<n>")` is its template."""
    return ["check", "--all", "--atoms", str(n), "--rules", str(n), "--programs", str(LAW_PROGRAMS), "--format", "json"]


def law_cells(src: Path) -> list[dict]:
    """One law-suite cell per n in LAW_ATOMS, with each law's name, ok and
    cases as `laws` when the suite ran (exit 0, or 3 for a failing law)."""
    cells = []
    for n in LAW_ATOMS:
        try:
            cell, out = measure_cell(src, law_argv(n))
        except subprocess.TimeoutExpired:
            cells.append({"n": n, "timeout": True})
            break
        cell = {"n": n, **cell}
        if cell["exit"] in (0, 3):
            cell["laws"] = [[law["name"], law["ok"], law["cases"]] for law in json.loads(out)["laws"]]
        cells.append(cell)
        print("law cell", n, cell["engine_s"], cell["exit"], flush=True)
    return cells


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--src", type=Path, default=Path("src"), help="directory to import aftlab from")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "aftlab" / "__init__.py").is_file():
        print(f"bench_matrix: no aftlab package under {src}", file=sys.stderr)
        return 2
    kept = caches(src)
    try:
        return measure_matrix(args.label, src)
    finally:
        remove_caches(src, kept)


def measure_matrix(label: str, src: Path) -> int:
    """Compile src, time every cell and write BENCH_<label>.json."""
    if not compile_tree(src):
        print(f"bench_matrix: a module under {src} does not compile", file=sys.stderr)
        return 2
    print(f"compiled {src} (compileall) before timing", flush=True)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for aggregates, series in ((0.0, ROWS), (AGGREGATE_PROBABILITY, AGGREGATE_ROWS)):
            for semantics, operator in series:
                positive = bool(aggregates) and (semantics, operator) in POSITIVE_AGGREGATE_ROWS
                cells = measure_row(src, Path(tmp), semantics, operator, aggregates, positive)
                row = {"semantics": semantics, "operator": operator, "cells": cells}
                if aggregates:
                    row["series"] = "aggregates"
                if positive:
                    row["negation_probability"] = 0
                rows.append(row)
                print(row.get("series", "plain"), semantics, operator or "-", " ".join(
                    "T/O" if c.get("timeout") else f"{c['engine_s']:.4f}" + ("" if c["exit"] == 0 else f"!{c['exit']}")
                    for c in cells), flush=True)
        program = program_file(src, Path(tmp), ATOMS[-1], 2, AGGREGATE_PROBABILITY, False)
        try:
            text_cell, _ = measure_cell(src, ["semantics", "--program", program, *TEXT_CELL])
        except subprocess.TimeoutExpired:
            text_cell = {"timeout": True}
        print("text cell", " ".join(TEXT_CELL), text_cell.get("engine_s", "T/O"), text_cell.get("exit", ""), flush=True)
        evals = eval_cells(src, Path(tmp))
    try:
        law_suite, _ = measure_cell(src, LAW_SUITE)
    except subprocess.TimeoutExpired:
        law_suite = {"timeout": True}
    print("law suite", " ".join(LAW_SUITE), law_suite.get("engine_s", "T/O"), law_suite.get("exit", ""), flush=True)
    laws = law_cells(src)
    payload = {
        "label": label,
        "host": {"machine": platform.machine(), "python": platform.python_version(), "cpus": os.cpu_count()},
        "programs": "aftlab generate --atoms n --rules n --width 2 --seed n (width 1 for dmt-det); rows of the"
                    f" aggregates series add --aggregate-probability {AGGREGATE_PROBABILITY}, and rows marked"
                    " negation_probability 0 also --negation-probability 0",
        "cell": "one interpreter per cell, wall seconds from fork to exit, peak resident MB of the interpreter;"
                " engine_s is the time of the main(...) call alone, after the imports, and the printed rows give it;"
                " reference_s is the fastest of two timings of a fixed pure-Python loop right before the cell and"
                " of two right after it, averaged",
        "bytecode": "the --src tree was compiled with compileall before the first cell, so every cell imports"
                    " aftlab from bytecode caches",
        "timeout_s": TIMEOUT_S,
        "rows": rows,
        "law_suite": {"argv": LAW_SUITE, **law_suite},
        "text_cell": {"argv": TEXT_CELL, "n": ATOMS[-1], "series": "aggregates", **text_cell},
        "eval_cells": {"argv": ["eval", "--program", "<the n=12 program of the series>", "--operator", "<operator>",
                                "--pair", ";<its atoms>", "--format", "json"], "cells": evals},
        "law_cells": {"argv": law_argv("<n>"), "programs": LAW_PROGRAMS, "cells": laws},
    }
    out = Path(f"BENCH_{label}.json")
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
