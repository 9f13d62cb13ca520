"""Mutation check of the Tier-1 suite: a kept table of source mutants, each
run against the tests in a copy of the checkout.

    python3 tools/mutants.py --label <label>

Each entry of MUTANTS is (file, exact old text, new text, description),
keyed by its name. For each entry the tool copies the tree the tests read
(COPIED) to a temporary directory, replaces the one occurrence of the old
text in the file with the new text, and runs the Tier-1 suite there with
`-x` under a per-mutant timeout, one pytest process at a time. A mutant is

- *killed* when some test fails, the suite cannot be collected, or the
  timeout is hit (a wrong fold can make a test loop forever);
- *survived* when the whole suite passes;
- *stale* when its old text does not occur exactly once in today's file:
  reported, never run and never dropped silently.

The by-design failure `test_criterion_8_law[gz-answer-sets]` (README "Known
defect") is deselected in every run, so that it kills no mutant, and so is
the Tier-1 test that checks each old text of this table against the tree
(TABLE_CHECK): a mutated copy fails it by construction, and this tool
reports a stale entry itself. The unmutated copy is run first and must
pass, or the tool stops with exit code 2. The output file
`MUTANTS_<label>.json` records per mutant its file, description, status,
first failing test and seconds. It is written first; then the tool exits
with code 1 if any mutant survived or is stale, and 0 if every one was
killed, so a run can gate a change. Standard library only, besides the
pytest that the tests need; run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# What Tier-1 reads: the package and its tests, and the files some tests
# open by path (README.md, tools/bench_matrix.py, perfbench/tracing.py).
COPIED = ("src", "tests", "tools", "perfbench", "README.md", "pyproject.toml")
KNOWN_FAILURE = "tests/test_acceptance.py::test_criterion_8_law[gz-answer-sets]"
TABLE_CHECK = "tests/test_mutants.py::test_every_mutant_old_text_occurs_exactly_once_in_its_file"
TIMEOUT_S = 300
PYTEST = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--deselect", KNOWN_FAILURE, "--deselect", TABLE_CHECK]

# name: (file, old text, new text, description). The old text must occur
# exactly once in the file; keep enough context around it for that.
MUTANTS = {
    # Operator values as rows (hitting sets, closures, precision codes, encode).
    "hitting-row-keeps-sets-outside-the-union": (
        "src/aftlab/lattice.py",
        "    return _within((1 << n) - 1 & ~union, without, row)\n",
        "    return row\n",
        "`hitting_row` drops the restriction to the subsets of the heads' union",
    ),
    "closure-rows-stop-one-doubling-short": (
        "src/aftlab/lattice.py",
        "_tile((1 << (1 << i)) - 1, 2 << i, size)",
        "_tile((1 << (1 << i)) - 1, 2 << i, size // 2)",
        "`row_columns` builds each `without` row over the lower half of the sets only",
    ),
    "up-closure-one-atom-short": (
        "src/aftlab/lattice.py",
        "    return _closure(row, _row_runs(n))\n",
        "    return _closure(row, _row_runs(n)[:-1])\n",
        "`up_closure` takes no step for the last atom",
    ),
    "prefixpoint-minimal-compares-the-wrong-closure": (
        "src/aftlab/laws.py",
        "if fixed != pre and up_closure(n, fixed) != up_closure(n, pre):",
        "if fixed != pre and fixed != up_closure(n, pre):",
        "`prefixpoint-minimal` compares the member row, not its up-closure, with the closure of the pre row",
    ),
    "prefixpoint-minimal-compares-the-rows": (
        "src/aftlab/laws.py",
        "if fixed != pre and up_closure(n, fixed) != up_closure(n, pre):",
        "if fixed != pre:",
        "`prefixpoint-minimal` fails where the member and pre rows differ, though their minimal sets agree",
    ),
    "hitting-row-takes-an-empty-head": (
        "src/aftlab/lattice.py",
        "        if not h:\n            raise AftlabError",
        "        if h < 0:\n            raise AftlabError",
        "`hitting_row` builds the (empty) row of a family with an empty head instead of refusing it",
    ),
    "prefixpoint-minimal-smyth-test-is-membership": (
        "src/aftlab/laws.py",
        "pre |= closed[row] & 1 << xm",
        "pre |= row & 1 << xm",
        "`prefixpoint-minimal` reads the Smyth test as the membership test",
    ),
    "dmt-det-collapse-reads-the-upper-row-below": (
        "src/aftlab/laws.py",
        "det[x << n | y][0] & 1 << x",
        "det[x << n | y][1] & 1 << x",
        "`dmt-det-collapse` collects the lower members from the upper row",
    ),
    "table-encode-drops-the-upper-row": (
        "src/aftlab/laws.py",
        "rows = lambda value: (u.row(value.lower_set), u.row(value.upper_set))",
        "rows = lambda value: (u.row(value.lower_set), 0)",
        "`OperatorTable` encodes an `apply_fn` value with an empty upper row",
    ),
    "ultimate-keeps-one-family": (
        "src/aftlab/operators.py",
        "ULTIMATE: (lambda families, heads, atoms: families[heads], or_),",
        "ULTIMATE: (lambda families, heads, atoms: families[heads], lambda a, b: a),",
        "`ultimate` takes the hitting sets of one head family of the interval, not their union",
    ),
    "least-precise-value-upper-is-every-set": (
        "src/aftlab/operators.py",
        "        return 1, 1 << (1 << len(u)) - 1\n",
        "        return 1, (1 << (1 << len(u))) - 1\n",
        "`gz` off the total pairs has every set, not {A}, in its upper row",
    ),
    "precision-code-closes-the-upper-half-upwards": (
        "src/aftlab/lattice.py",
        "((allowed >> bit) & upper_half)",
        "((allowed << bit) & upper_half)",
        "`precision_code` takes the up-closure of the upper set in place of its down-closure",
    ),
    # The bit-parallel kit that rows, pair planes and key tables share.
    "within-skips-the-lowest-atom": (
        "src/aftlab/lattice.py",
        "    while m:\n        full &= inside",
        "    m &= m - 1\n    while m:\n        full &= inside",
        "`_within` tests every atom of the mask but its lowest",
    ),
    "meets-drops-the-last-atom": (
        "src/aftlab/lattice.py",
        "    while m:\n        out |= inside",
        "    while m & m - 1:\n        out |= inside",
        "`_meets` tests every atom of the mask but its highest",
    ),
    "closure-skips-its-last-run": (
        "src/aftlab/lattice.py",
        "    for shift, mask in runs:\n        marks |= mask & (marks << shift)",
        "    for shift, mask in runs[:-1]:\n        marks |= mask & (marks << shift)",
        "`_closure` takes no step along its last run",
    ),
    "tile-stops-one-doubling-short": (
        "src/aftlab/lattice.py",
        "    while period < size:\n        block |= block << period",
        "    while period < size // 2:\n        block |= block << period",
        "`_tile` stops one doubling short, so a column covers only the lower half of its bits or less",
    ),
    # The mutants of the HT tables and the key readers (re-expressed from CHANGES.md).
    "ht-tables-classical-half-reads-x": (
        "src/aftlab/four.py",
        "return in_y, in_x",
        "return in_x, in_x",
        "`four.ht_tables` reads an atom classically at x (its x column) in place of y",
    ),
    "ht-tables-ht-half-reads-y": (
        "src/aftlab/four.py",
        "return in_y, in_x",
        "return in_y, in_y",
        "`four.ht_tables` reads an atom in HT at y (its y column) in place of x",
    ),
    "ht-tables-negation-reads-the-ht-plane": (
        "src/aftlab/four.py",
        "~read(g.operand)[0]",
        "~read(g.operand)[1]",
        "`four.ht_tables` negates its operand's HT plane in place of its classical plane",
    ),
    "consistent-numbers-drop-the-top-atom": (
        "src/aftlab/laws.py",
        "masks_above_i(0, (1 << n) - 1)",
        "masks_above_i(0, (1 << n) - 1 >> 1)",
        "`laws._consistent` numbers only the consistent pairs without the highest atom",
    ),
    "pairs-drop-an-atom-of-some-upper-sets": (
        "src/aftlab/semantics.py",
        "return [u.pair(k >> n, k & low) for k in keys]",
        "return [u.pair(k >> n, k & low & ~(8 if n >= 4 and k & 1 else 0)) for k in keys]",
        "`semantics._pairs` drops atom 3 from the decoded upper set of the keys with atom 0 in y, at n >= 4",
    ),
    "ht-keys-drop-the-last-key": (
        "src/aftlab/semantics.py",
        "return _plane_keys(planes, planes.smyth & planes.closed, truth_minimal)",
        "return _plane_keys(planes, planes.smyth & planes.closed, truth_minimal)[:-1]",
        "`semantics._ht_keys` drops its last key",
    ),
    # Layers that had no recorded mutant.
    "stable-rows-keyed-without-the-read-atoms": (
        "src/aftlab/operators.py",
        "key = live[m], m & read",
        "key = live[m], 0",
        "`stable_rows` keys a row by its live rules alone, not by the atoms aggregate and formula bodies read",
    ),
    "writer-drops-the-separator-between-chunks": (
        "src/aftlab/render.py",
        'write((sep if at else "") + sep.join(chunk))',
        "write(sep.join(chunk))",
        "`render.write_semantics` writes no separator between two chunks of models",
    ),
    "number-keeps-an-integral-fraction": (
        "src/aftlab/program.py",
        "return value.numerator if value.denominator == 1 else value",
        "return value",
        "the parser reads an integral number written with '.' or '/' as a `Fraction`, not an `int`",
    ),
    # GZ answer sets on rows, and the program file reader.
    "gz-model-row-ignores-the-heads": (
        "src/aftlab/semantics.py",
        "models &= head | ~body",
        "models &= ~body",
        "`gz_answer_sets` keeps as candidates only the sets at which no body holds, whatever the heads",
    ),
    "gz-minimality-row-skips-an-atom": (
        "src/aftlab/semantics.py",
        "left = _within(every & ~xm, without, full)",
        "left = _within(every & ~xm & ~1, without, full)",
        "`gz_answer_sets` restricts the reduct's models with no `without` row of atom 0, so they range over"
        " the subsets of x with atom 0",
    ),
    "gz-reduct-body-drops-the-aggregate-conditions": (
        "src/aftlab/semantics.py",
        "reduce(or_, [c for c in conds if not c & ~xm], 0)",
        "0",
        "`gz_answer_sets` reads a reduct body as pos alone, without the conditions of its aggregates within x",
    ),
    "gz-holds-test-read-at-the-wrong-bit": (
        "src/aftlab/semantics.py",
        "if body >> xm & 1:",
        "if body >> (xm | 1) & 1:",
        "`gz_answer_sets` reads whether a rule is in the reduct at x from its body row at x with atom 0 added",
    ),
    "program-file-lone-cr-not-a-newline": (
        "src/aftlab/cli.py",
        '.replace("\\r", "\\n"))',
        ")",
        "the program file reader leaves a lone carriage return in the text instead of reading it as a newline",
    ),
    "program-file-decode-error-escapes": (
        "src/aftlab/cli.py",
        "except (OSError, UnicodeDecodeError) as exc:",
        "except OSError as exc:",
        "a program file that is not UTF-8 ends in a traceback instead of a usage error",
    ),
    "tokenizer-carriage-return-not-blank": (
        "src/aftlab/program.py",
        r"[ \t\r]* (?: (?P<newline>",
        r"[ \t]* (?: (?P<newline>",
        "the tokenizer does not take a carriage return as a blank",
    ),
    # The compiled stores that fill themselves, and the one HT reading.
    "base-fill-skips-the-last-rule": (
        "src/aftlab/program.py",
        "fired = [r for r in rules if r.holds(u, xm)]",
        "fired = [r for r in rules[:-1] if r.holds(u, xm)]",
        "`Compiled.base` fills each base entry from every rule but the last",
    ),
    "family-fill-drops-the-highest-head": (
        "src/aftlab/program.py",
        "if family >> k & 1])",
        "if family >> k & 1 and family >> k > 1])",
        "`Compiled.families` builds the hitting sets of a head family without the highest head of its int",
    ),
    "ht-model-keys-read-the-head-classically-at-x": (
        "src/aftlab/semantics.py",
        "models &= (~body_ht | head_ht) & (~body_y | head_y)",
        "models &= (~body_ht | head_ht) & (~body_y | head_ht)",
        "`semantics._ht_model_keys` reads a head's classical half at x (its HT table) in place of y",
    ),
    # The law table on lists: the cached walk of `values` and the cached monotonicity steps.
    "walk-drops-its-last-triple": (
        "src/aftlab/operators.py",
        "    return tuple(steps)\n",
        "    return tuple(steps[:-1])\n",
        "`operators._walk` leaves out its last pair, (∅, A), so `values` never folds it",
    ),
    "ultimate-join-ands": (
        "src/aftlab/operators.py",
        "ULTIMATE: (lambda families, heads, atoms: families[heads], or_),",
        "ULTIMATE: (lambda families, heads, atoms: families[heads], lambda a, b: a & b),",
        "`ultimate` joins the hitting-set rows of the interval by AND, their intersection, not their union",
    ),
    "gz-off-the-total-pairs-swaps-its-rows": (
        "src/aftlab/operators.py",
        "        return 1, 1 << (1 << len(u)) - 1\n",
        "        return 1 << (1 << len(u)) - 1, 1\n",
        "`gz` off the total pairs is ({A}, {∅}), its two rows swapped, in place of ({∅}, {A})",
    ),
    "monotone-steps-skip-atom-0": (
        "src/aftlab/laws.py",
        "[1 << i for i in range(n)]",
        "[1 << i for i in range(1, n)]",
        "the cached steps of `monotonicity` take no pass for atom 0, so no pair is checked above it along atom 0",
    ),
    # The semantics' filters on pair keys.
    "wf-ors-the-x-masks": (
        "src/aftlab/semantics.py",
        "reduce(lambda a, k: a & k >> n, keys, low)",
        "reduce(lambda a, k: a | k >> n, keys, 0)",
        "`wf` takes the OR of the stable keys' x masks, their join, in place of their AND",
    ),
    "seq-approx-reads-the-x-side-the-wrong-way-round": (
        "src/aftlab/semantics.py",
        "not k >> n & ~(j >> n)",
        "not j >> n & ~(k >> n)",
        "`seq-approx` drops a key when another key's x lies within its x, in place of holding it",
    ),
    "total-stable-keeps-a-non-total-key": (
        "src/aftlab/semantics.py",
        "if k >> n == k & (1 << n) - 1]",
        "if k >> n | 1 == k & (1 << n) - 1 | 1]",
        "`total_stable_fixpoints` keeps the stable keys whose x and y differ only at atom 0",
    ),
    # The program digest on the interpreter's built-in SHA-256.
    "program-hash-takes-the-wrong-digits": (
        "src/aftlab/program.py",
        ".hexdigest()[:12]",
        ".hexdigest()[1:13]",
        "`program_hash` takes hex digits 2-13 of the SHA-256, in place of the first 12",
    ),
    "program-hash-drops-the-last-newline": (
        "src/aftlab/program.py",
        "_sha256(p.text.encode())",
        "_sha256(p.text[:-1].encode())",
        "`program_hash` hashes the program text without its last newline",
    ),
    "program-hash-is-not-kept": (
        "src/aftlab/program.py",
        'digest = p.__dict__["_digest"] = _sha256(',
        "digest = _sha256(",
        "`program_hash` computes the digest on every call and keeps none",
    ),
    "program-binds-hashlib": (
        "src/aftlab/program.py",
        "try:\n    from _sha2 import sha256 as _sha256  # Python 3.12 and later\n"
        "except ImportError:\n    try:\n        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11\n"
        "    except ImportError:\n        from hashlib import sha256 as _sha256\n",
        "from hashlib import sha256 as _sha256\n",
        "`program` binds `hashlib.sha256`, which loads OpenSSL, in place of the built-in SHA-256",
    ),
}


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".perfbench"))
        else:
            shutil.copy2(source, dest / name)


def mutate(tree: Path, path: str, old: str, new: str) -> bool:
    """Replace the one occurrence of `old` in the file; False (stale) if it
    does not occur exactly once."""
    target = tree / path
    text = target.read_text(encoding="utf-8")
    if text.count(old) != 1:
        return False
    target.write_text(text.replace(old, new), encoding="utf-8")
    return True


def first_failure(output: str) -> str | None:
    """The first failing test or collection error that pytest's summary names."""
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return found[1] if found else None


def run_suite(tree: Path) -> tuple[str, str | None, float]:
    """Status (killed or survived), first failing test and seconds of one
    Tier-1 run in the tree."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, *PYTEST], cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed", f"timeout after {TIMEOUT_S} s", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if done.returncode == 0:
        return "survived", None, seconds
    return "killed", first_failure(done.stdout) or f"pytest exit code {done.returncode}", seconds


def run_one(patch: tuple[str, str, str] | None) -> dict:
    """One Tier-1 run in a fresh copy of the tree, with the patch (file, old
    text, new text) applied, or unmutated for None."""
    with tempfile.TemporaryDirectory(prefix="aftlab-mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        if patch is not None and not mutate(tree, *patch):
            return {"status": "stale", "first_failure": None, "seconds": 0.0}
        status, failure, seconds = run_suite(tree)
    return {"status": status, "first_failure": failure, "seconds": round(seconds, 1)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="names the output file MUTANTS_<label>.json")
    args = parser.parse_args(argv)
    baseline = run_one(None)
    print("unmutated", baseline["status"], baseline["first_failure"] or "", baseline["seconds"], flush=True)
    if baseline["status"] != "survived":
        print("mutants: the unmutated tree fails its tests", file=sys.stderr)
        return 2
    results = {}
    for name in MUTANTS:
        path, old, new, description = MUTANTS[name]
        results[name] = {"file": path, "description": description, **run_one((path, old, new))}
        print(name, results[name]["status"], results[name]["first_failure"] or "", results[name]["seconds"],
              flush=True)
    payload = {
        "label": args.label,
        "host": {"machine": platform.machine(), "python": platform.python_version(), "cpus": os.cpu_count()},
        "command": ["python3", *PYTEST],
        "timeout_s": TIMEOUT_S,
        "unmutated_s": baseline["seconds"],
        "counts": {status: sum(r["status"] == status for r in results.values())
                   for status in ("killed", "survived", "stale")},
        "mutants": results,
    }
    out = Path(f"MUTANTS_{args.label}.json")
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 1 if payload["counts"]["survived"] or payload["counts"]["stale"] else 0


if __name__ == "__main__":
    sys.exit(main())
