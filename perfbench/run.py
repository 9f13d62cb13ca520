"""aftlab benchmark: one command per workload, end-to-end metrics by default,
per-layer metrics from a traced run with `--trace 1`.

    python3 perfbench/run.py --workload four-valued --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports aftlab from `src/` there and
from nowhere else. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import layers
import workloads as wl

JOB_TIMEOUT_S = 60
TRACE_BATCH_SHARE = 2  # a traced run covers the first half of the job list
# The host's speed drifts by up to half between phases that last seconds to
# minutes, with CPU time equal to wall time, so a time taken in one phase does
# not repeat in another. Every timing therefore comes with the time of a fixed
# pure-Python loop taken right before and right after it (REFERENCE_TRIES
# tries each side, the fastest kept), and is reported in units of that loop,
# converted to seconds at REFERENCE_S per loop: the loop's time on the
# calibration host (a 2-vCPU x86_64 VM, Python 3.11) in its usual phase. The
# loop uses no aftlab code, so a change to aftlab moves the timings and not
# the loop.
REFERENCE_TRIES = 2
REFERENCE_S = 0.009
SETUP_PROBES = 27  # fresh interpreters spread evenly over the run; setup_s is their median
FROZEN = Path(__file__).resolve().parent / "frozen.json"
GOLDEN_PAIRS = {"negation_vs_positive_loop": ";p,q", "negation_loop_disjunction": ";q", "aggregate_cycle": ";r,s"}


class SetupError(Exception):
    """The checkout does not hold what the benchmark needs."""


# ---------------------------------------------------------------------------
# Jobs in forked interpreters
# ---------------------------------------------------------------------------


def run_forked(fn) -> tuple[dict, float]:
    """Run fn() in a forked child and return its JSON result and how far the
    child's resident set grew above what it held at the fork, in MB. The
    parent has imported aftlab but never run it, so every child starts with
    empty module-level caches, as a fresh `aftlab` process does; the growth
    leaves out the benchmark's own memory, which the child shares."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        at_fork_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        signal.alarm(JOB_TIMEOUT_S)
        try:
            result = fn()
        except BaseException:  # report everything, including SystemExit
            result = {"error": traceback.format_exc()}
        result["at_fork_kb"] = at_fork_kb
        with os.fdopen(write_fd, "w") as pipe:
            pipe.write(json.dumps(result))
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if os.WIFSIGNALED(status):
        return {"error": f"killed by signal {os.WTERMSIG(status)} (timeout {JOB_TIMEOUT_S} s)"}, 0.0
    try:
        result = json.loads(data)
    except ValueError:
        return {"error": "job sent no result"}, 0.0
    return result, (usage.ru_maxrss - result.pop("at_fork_kb")) / 1024


def reference_loop() -> int:
    """Fixed work in the style of aftlab's inner loops: frozensets, tuples,
    hashing and dict updates."""
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


def job_seconds(result: dict) -> float:
    """A job's time in reference seconds."""
    return REFERENCE_S * result["job_s"] / result["ref_s"]


def _timed(call, traced: bool) -> dict:
    """Run call() with stdout captured; time it, and trace it if asked. The
    reference loop is timed right before and right after the job."""
    ref_before = reference_s()
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.stack[0][1] = time.perf_counter()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = call()
    job_s = time.perf_counter() - start
    result = {"code": code, "job_s": job_s, "out": out.getvalue(), "err": err.getvalue()}
    if tracer is not None:
        result["trace"] = tracer.finish()
    result["ref_s"] = (ref_before + reference_s()) / 2
    return result


def cli_job(argv: list[str], traced: bool = False):
    def call():
        from aftlab import cli

        return cli.main(argv)

    return lambda: _timed(call, traced)


def laws_job(programs, traced: bool = False):
    def call():
        from aftlab import laws

        outcomes = laws.run_laws(programs)
        print(json.dumps([[o.name, o.ok, o.cases] for o in outcomes]))
        return 0

    return lambda: _timed(call, traced)


# ---------------------------------------------------------------------------
# Set-up time: fresh interpreters
# ---------------------------------------------------------------------------

PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import aftlab, aftlab.cli, aftlab.laws
if len(sys.argv) > 2:
    from aftlab import corpus, program
    corpus.programs()
    for text in open(sys.argv[2], encoding="utf-8").read().split("\\n\\n"):
        program.parse(text)
done = time.perf_counter()
import resource
print(done, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def setup_probe(src: Path, programs_file: Path | None) -> tuple[float, float, float]:
    """Seconds from spawning an interpreter until it has imported aftlab with
    `cli` and `laws` (and, for law-suite, parsed the program set), the
    interpreter's resident set then, in MB, and the reference loop's time
    around the probe, timed in this process."""
    argv = [sys.executable, "-c", PROBE, str(src)] + ([str(programs_file)] if programs_file else [])
    ref_before = reference_s()
    start = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    end, rss_kb = done.stdout.split()
    return float(end) - start, int(rss_kb) / 1024, (ref_before + reference_s()) / 2


# ---------------------------------------------------------------------------
# Running a job list
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, workload: str, seed: int, root: Path):
        self.workload = workload
        self.root = root
        self.src = root / "src"
        self.work = root / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
        self.failures: list[str] = []
        self.attempted = 0
        self.parsed: dict[int, object] = {}

    def prepare(self, jobs: list[wl.Job]) -> None:
        """Write program files (CLI jobs) or parse programs (law jobs) before
        any timing, so the forked children inherit them."""
        from aftlab import corpus, program

        self.work.mkdir(parents=True, exist_ok=True)
        for job in jobs:
            if job.semantics is not None:
                path = self.work / f"{job.name.replace('/', '_')}.lp"
                path.write_text(job.program.text(), encoding="utf-8")
                job.argv = wl.semantics_argv(job, str(path))
            elif job.corpus:
                self.parsed[id(job)] = corpus.programs()
            else:
                self.parsed[id(job)] = [program.parse(p.text()) for p in job.programs]

    def job_fn(self, job: wl.Job, traced: bool):
        if job.semantics is not None:
            return cli_job(job.argv, traced)
        return laws_job(self.parsed[id(job)], traced)

    def run(self, job: wl.Job, traced: bool = False) -> tuple[dict, float]:
        self.attempted += 1
        result, grown_mb = run_forked(self.job_fn(job, traced))
        if "error" in result:
            self.fail(job.name, result["error"].strip().splitlines()[-1])
        return result, grown_mb

    def fail(self, name: str, why: str) -> None:
        self.failures.append(f"{name}: {why}")

    def check(self, job: wl.Job, result: dict) -> None:
        if "error" in result:
            return
        check = wl.check_semantics if job.semantics is not None else wl.check_laws
        try:
            why = check(job, result["code"], result["out"])
        except (LookupError, TypeError, ValueError) as exc:
            why = f"malformed output ({exc!r})"
        if why:
            self.fail(job.name, why)

    def run_all(self, jobs: list[wl.Job], traced: bool = False) -> list[tuple[wl.Job, dict, float]]:
        return [(job, *self.run(job, traced)) for job in jobs]

    def goldens(self) -> None:
        """Reference (a): the corpus goldens, byte for byte."""
        from aftlab import corpus

        for path in sorted((self.src / "aftlab" / "corpus" / "expected").glob("*.json")):
            name, semantics, *operator = path.stem.split(".")
            operator = operator[0] if operator else None
            program = str(corpus.path(name))
            if semantics == "eval":
                argv = ["eval", "--program", program, "--operator", operator, "--pair", GOLDEN_PAIRS[name]]
            else:
                argv = ["semantics", "--program", program, "--semantics", semantics]
                if operator and semantics not in ("kk", "wf"):
                    argv += ["--operator", operator]
            job = wl.Job(f"golden/{path.stem}", 0, argv=argv + ["--format", "json"])
            self.attempted += 1
            result, _ = run_forked(cli_job(job.argv))
            if result.get("out") != path.read_text(encoding="utf-8"):
                self.fail(job.name, "output differs from the golden file")

    def frozen(self) -> None:
        """References (c) and (d): a fixed job list whose outputs must stay
        byte-identical to those of the seed commit, kept as digests."""
        expected = json.loads(FROZEN.read_text(encoding="utf-8"))[self.workload]
        jobs = frozen_jobs(self.workload)
        self.prepare(jobs)
        for job in jobs:
            result, _ = self.run(job)
            self.check(job, result)
            if "error" not in result and digest(result["out"]) != expected.get(job.name):
                self.fail(job.name, "output differs from the seed commit's (frozen digest)")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def frozen_jobs(workload: str) -> list[wl.Job]:
    """The fixed job list behind references (c) and (d): one batch with one
    atom fewer per program, or the corpus plus three law-suite batches."""
    if workload == "law-suite":
        return wl.build(workload, "frozen", 3, prefix="frozen/")
    return wl.build(workload, "frozen", 1, shrink=1, prefix="frozen/")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(runs: list[tuple[wl.Job, dict, float]], setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """The gated metrics, and table notes with the job-time quantiles. Times
    are in reference seconds (see REFERENCE_S); the wall-clock sum of the job
    times is printed as a note.

    total_s is the sum of the job times. setup_s is the median set-up time of
    the SETUP_PROBES interpreters. peak_rss_mb is the resident set of a fresh
    interpreter after set-up plus the largest growth of any job in a batch,
    median over the batches: what the biggest job of a typical batch would
    hold as its own `aftlab` process.

    job_s_p50 and job_s_p90 are printed but not gated: a quantile of single
    jobs moves with the few programs next to it, and over ten seeds their
    spread reached 0.29 and 0.30 of the median in wall-clock seconds, above
    the largest bound a metric may have."""
    timed = [r for _, r, _ in runs if "job_s" in r]
    times = [job_seconds(r) for r in timed]
    peaks: dict[int, float] = {}
    for job, _, grown in runs:
        peaks[job.batch] = max(peaks.get(job.batch, 0.0), grown)
    base_mb = statistics.median(rss for _, rss, _ in setup)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    beyond = sum(t > p90 for t in times)
    metrics = {
        "setup_s": (statistics.median(REFERENCE_S * t / ref for t, _, ref in setup), "s"),
        "total_s": (sum(times), "s"),
        "peak_rss_mb": (base_mb + statistics.median(peaks.values()), "MB"),
    }
    notes = [
        f"jobs timed: {len(times)} in {len(peaks)} batches; set-up: {len(setup)} interpreters",
        f"wall-clock total: {sum(r['job_s'] for r in timed):.6g} s; reference loop:"
        f" median {statistics.median(r['ref_s'] for r in timed) * 1000:.4g} ms (REFERENCE_S {REFERENCE_S * 1000:g} ms)",
        f"fresh interpreter after set-up: {base_mb:.6g} MB resident",
        f"job_s_p50: {statistics.median(times):.6g} s",
        f"job_s_p90: {p90:.6g} s, {beyond} samples beyond it"
        + ("" if beyond >= 10 else " (fewer than 10: indicative only)"),
    ]
    return metrics, notes


def timed_pass(runner: Runner, jobs: list[wl.Job], src: Path, programs_file: Path | None):
    """Run the job list with set-up probes spread evenly over it."""
    setup_probe(src, programs_file)  # warm-up: compiles bytecode, fills the page cache
    gc.freeze()  # children then skip the parent's objects in their collections
    before = Counter(k * len(jobs) // SETUP_PROBES for k in range(SETUP_PROBES))
    runs, setup = [], []
    for i, job in enumerate(jobs):
        setup += [setup_probe(src, programs_file) for _ in range(before[i])]
        runs.append((job, *runner.run(job)))
    for job, result, _ in runs:
        runner.check(job, result)
    return runs, setup


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl.NOMINAL_BATCH_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        src = import_aftlab(root)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    batches = max(1, round(args.seconds / wl.NOMINAL_BATCH_S[args.workload]))
    if args.trace:
        batches = max(1, batches // TRACE_BATCH_SHARE)
    jobs = wl.build(args.workload, args.seed, batches)
    runner = Runner(args.workload, args.seed, root)
    try:
        runner.prepare(jobs)
        programs_file = None
        if args.workload == "law-suite":
            programs_file = runner.work / "programs.txt"
            programs_file.write_text("\n\n".join(p.text() for job in jobs for p in job.programs), encoding="utf-8")
        runs, setup = timed_pass(runner, jobs, src, programs_file)
        if args.trace:
            metrics, notes = traced_metrics(runner, jobs, runs)
        else:
            metrics, notes = end_to_end(runs, setup)
        runner.goldens()
        runner.frozen()
    finally:
        runner.close()

    failed = len(runner.failures)
    for line in runner.failures[:20]:
        print(f"FAILED {line}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    moves = layers.MOVES if args.trace else {}
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit:6s} {moves.get(name, '')}".rstrip())
    print(f"  {'fail_ratio':42s} {failed / runner.attempted:14.6g} failed/attempted ({failed}/{runner.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def import_aftlab(root: Path) -> Path:
    src = root / "src"
    if not (src / "aftlab" / "__init__.py").is_file():
        raise SetupError(f"no aftlab sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import aftlab
    import aftlab.cli  # noqa: F401  imported here, so that no job's time includes it
    import aftlab.laws  # noqa: F401

    if Path(aftlab.__file__).resolve().parent != (src / "aftlab").resolve():
        raise SetupError(f"imported aftlab from {aftlab.__file__}, not from {src}")
    return src


def traced_metrics(runner: Runner, jobs, untraced) -> tuple[dict, list[str]]:
    traced = runner.run_all(jobs, traced=True)
    for (job, plain, _), (_, result, _) in zip(untraced, traced):
        if "error" not in result and "error" not in plain and result["out"] != plain["out"]:
            runner.fail(job.name, "traced output differs from the untraced output")
    metrics, tree = layers.per_layer(untraced, traced, job_seconds)
    out_dir = runner.root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{runner.workload}.json"
    trace_file.write_text(json.dumps(tree, indent=1), encoding="utf-8")
    return metrics, [f"jobs traced: {len(traced)}; call tree written to {trace_file.relative_to(runner.root)}"]


if __name__ == "__main__":
    sys.exit(main())
