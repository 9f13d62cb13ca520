"""The benchmark's tracer (`perfbench/tracing.py`) finds the functions it wraps
by name, so a renamed or deleted one breaks its traced runs. Building its
wrapper plan, without installing it, reads every one of those names;
installing it also reads the `AtomUniverse` methods it wraps, so one traced
run is made in a child process, which the patches leave behind with it."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from aftlab import laws, operators as ops

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
# A traced run of one `semantics` command, one law suite over two corpus
# programs and `exactness` alone over them; prints the exit code, the names of
# the spans it recorded, those of the spans opened directly under
# `laws.run_laws` and those opened at any depth under `laws.exactness`.
TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
sys.path.insert(0, sys.argv[1])
from aftlab import cli, corpus, laws
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[2])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
argv = ["semantics", "--program", str(corpus.path("aggregate_cycle")), "--semantics", "stable",
        "--operator", "ultimate", "--format", "json"]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv)
programs = lambda: [corpus.load("aggregate_cycle"), corpus.load("disjunctive_self_defeat")]
laws.run_laws(programs())
laws.run_laws(programs(), ["exactness"])
nodes = tracer.finish()["nodes"]
under_run_laws = [node[0] for node in nodes if nodes[node[1]][0] == "laws.run_laws"]
def callers(node):
    while node[1] >= 0:
        node = nodes[node[1]]
        yield node[0]
under_exactness = sorted({node[0] for node in nodes if "laws.exactness" in callers(node)})
print(json.dumps({"code": code, "spans": sorted({node[0] for node in nodes}), "under_run_laws": under_run_laws,
                  "under_exactness": under_exactness}))
"""


def test_the_tracer_finds_every_function_it_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    plan = tracing._wrappers(tracing.Tracer())
    assert all(callable(wrapper) for wrapper in plan.values())
    assert all(hasattr(getattr(ops, name), "cache_info") for name in tracing.MEMO)


def test_a_traced_run_records_the_spans_of_the_command_the_laws_and_the_lattice():
    done = subprocess.run([sys.executable, "-c", TRACED_RUN, str(ROOT / "src"), str(TRACING)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    run = json.loads(done.stdout)
    assert run["code"] == 0
    assert {"cli.main", "laws.run_laws", "lattice.unmask"} <= set(run["spans"])
    # One span per law, each called by `run_laws` with the program and its table.
    law_spans = sorted(name for name in run["under_run_laws"] if name.startswith("laws."))
    assert len(laws.LAW_NAMES) == 13
    assert law_spans == sorted(f"laws.{name}" for name in laws.LAW_NAMES)
    # The reference operators are read whole (`operators.values`), even by a law run alone.
    assert not [name for name in run["under_exactness"] if name.startswith("operators.apply.")], run["under_exactness"]
