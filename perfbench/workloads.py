"""The benchmark's workloads: seeded job lists and the checks on each job.

A workload's job list is a number of batches with a fixed composition; each
batch draws fresh programs from the workload seed, so a longer run averages
over more programs rather than repeating the same ones.

- four-valued: aggregate-free disjunctive programs under the four-valued
  operator `ic`, the GL-transform semantics and GZ answer sets. Hitting-set
  enumeration, four-valued evaluation and the reducts do the work;
  `lattice.interval` does none.
- interval: aggregate programs under the interval-based operators `dmt`,
  `ultimate`, `gz` and `dmt-det`. Interval enumeration, two-valued and
  aggregate evaluation and memo-key hashing do the work; `four.eval_pair`
  does none.
- law-suite: many tiny programs through `laws.run_laws` with all 13 laws, a
  few per warm interpreter, so per-call and per-program overhead dominates.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import oracle
from gen import GenProgram, Shape, generate

FAMILIES = {
    "disjunctive": Shape(),
    "positive-aggregates": Shape(aggregate_probability=0.3),
    "aggregates": Shape(aggregate_probability=0.35, negated_aggregates=True),
    "atomic-aggregates": Shape(head_width=1, aggregate_probability=0.35, negated_aggregates=True),
    "atomic": Shape(head_width=1),
}

# (semantics, operator or None, atoms, program family); one batch runs each once.
# No wide gap in job times may lie at the median or the 90th percentile, or
# those quantiles jump between runs. So in four-valued seven kinds are faster
# than `fixpoints` at n = 6, seven are slower, and those three jobs sit at the
# median; the top fifth are `stable --operator ic` at n = 6.
FOUR_VALUED = (
    ("ht", "ic", 5, "disjunctive"),
    ("seq", "ic", 5, "disjunctive"),
    ("fixpoints", "ic", 5, "disjunctive"),
    ("three-valued-stable", None, 5, "disjunctive"),
    ("gz-answer-sets", None, 6, "positive-aggregates"),
    ("seq", "ic", 6, "disjunctive"),
    ("ht", "ic", 6, "disjunctive"),
    ("fixpoints", "ic", 6, "disjunctive"),
    ("fixpoints", "ic", 6, "disjunctive"),
    ("fixpoints", "ic", 6, "disjunctive"),
    ("stable", "ic", 5, "disjunctive"),
    ("stable", "ic", 5, "disjunctive"),
    ("three-valued-stable", None, 6, "disjunctive"),
    ("gz-answer-sets", None, 8, "positive-aggregates"),
    ("stable", "ic", 6, "disjunctive"),
    ("stable", "ic", 6, "disjunctive"),
    ("stable", "ic", 6, "disjunctive"),
)

# "mixed" draws disjunctive or atomic-head aggregate programs at random.
INTERVAL = (
    ("stable", "dmt", 6, "mixed"),
    ("stable", "dmt", 7, "mixed"),
    ("stable", "ultimate", 6, "mixed"),
    ("stable", "ultimate", 7, "mixed"),
    ("stable", "gz", 7, "mixed"),
    ("fixpoints", "dmt", 6, "mixed"),
    ("fixpoints", "dmt", 7, "mixed"),
    ("fixpoints", "ultimate", 6, "mixed"),
    ("fixpoints", "gz", 8, "mixed"),
    ("seq", "dmt", 6, "mixed"),
    ("seq", "ultimate", 6, "mixed"),
    ("seq", "gz", 6, "mixed"),
    ("seq", "gz", 7, "mixed"),
    ("stable", "dmt-det", 6, "atomic-aggregates"),
    ("wf", "dmt-det", 8, "atomic-aggregates"),
    ("kk", "dmt-det", 8, "atomic-aggregates"),
    ("kk", "dmt-det", 9, "atomic-aggregates"),
)

# One law-suite job: run_laws with all laws over these programs. Every chunk
# has the same families, so chunk times form one cluster.
LAW_CHUNK = ((3, "disjunctive"), (3, "atomic-aggregates"), (4, "atomic"))

# Seconds one batch takes at the seed commit on a 2-core x86 VM in its faster
# phases; sets how many batches a run has. The host's speed moves by up to
# half, so a run of --seconds 20 measures for about 18 to 30 seconds.
NOMINAL_BATCH_S = {"four-valued": 4.4, "interval": 4.3, "law-suite": 0.23}

LAW_NAMES = (
    "monotonicity",
    "exactness",
    "precision-chain",
    "ultimate-max",
    "symmetry",
    "upwards-coherence",
    "ht-equality",
    "total-stable-ht",
    "seq-nonempty",
    "stable-t-minimal",
    "gz-answer-sets",
    "dmt-det-collapse",
    "prefixpoint-minimal",
)
LAWS_EXPECTED_TO_FAIL = ("gz-answer-sets",)  # README "Known defect"


@dataclass
class Job:
    """One job: an `aftlab` command line, or one `run_laws` call."""

    name: str
    batch: int
    argv: list[str] | None = None
    programs: list[GenProgram] = field(default_factory=list)
    corpus: bool = False  # law job over the package's corpus programs
    semantics: str | None = None
    operator: str | None = None

    @property
    def program(self) -> GenProgram:
        return self.programs[0]


def _semantics_job(name: str, batch: int, spec: tuple, rng: random.Random) -> Job:
    semantics, operator, n, family = spec
    if family == "mixed":
        family = "aggregates" if rng.random() < 0.5 else "atomic-aggregates"
    return Job(name, batch, programs=[generate(rng, n, FAMILIES[family])], semantics=semantics, operator=operator)


def build(workload: str, seed: int | str, batches: int, shrink: int = 0, prefix: str = "") -> list[Job]:
    """The job list of `batches` batches. `shrink` takes atoms off every
    program and `prefix` starts every job name (both for the frozen list)."""
    jobs = []
    if workload == "law-suite":
        jobs.append(Job(f"{prefix}laws/corpus", 0, corpus=True))
        for b in range(batches):
            rng = random.Random(f"{workload}:{seed}:{b}")
            programs = [generate(rng, n, FAMILIES[family]) for n, family in LAW_CHUNK]
            jobs.append(Job(f"{prefix}laws/{b}", b, programs=programs))
        return jobs
    batch = {"four-valued": FOUR_VALUED, "interval": INTERVAL}[workload]
    for b in range(batches):
        for pos, (semantics, operator, n, family) in enumerate(batch):
            rng = random.Random(f"{workload}:{seed}:{b}:{pos}")
            spec = (semantics, operator, max(3, n - shrink), family)
            name = f"{prefix}{b}/{pos}/{semantics}/{operator or '-'}/{spec[2]}"
            jobs.append(_semantics_job(name, b, spec, rng))
    return jobs


def semantics_argv(job: Job, path: str) -> list[str]:
    argv = ["semantics", "--program", path, "--semantics", job.semantics, "--format", "json"]
    if job.operator:
        argv += ["--operator", job.operator]
    return argv


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _as_set(sets) -> set[tuple[str, ...]]:
    return {tuple(s) for s in sets}


def check_semantics(job: Job, code: int, out: str) -> str | None:
    """Why the job's output is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    try:
        data = json.loads(out)
    except ValueError:
        return "output is not JSON"
    p = job.program
    atoms = list(p.atoms)
    if data.get("universe") != atoms or data.get("semantics") != job.semantics:
        return "wrong universe or semantics name"
    if data.get("operator") != job.operator:
        return f"operator {data.get('operator')!r}, expected {job.operator!r}"
    models = data.get("models")
    if not isinstance(models, list) or data.get("counts", {}).get("models") != len(models):
        return "model count does not match the models"
    index = {a: i for i, a in enumerate(atoms)}

    def mask(side):
        return sum(1 << index[a] for a in side)

    keys = []
    for m in models:
        if sorted(m["lower"], key=index.get) != m["lower"] or sorted(m["upper"], key=index.get) != m["upper"]:
            return "atoms not in universe order"
        if not set(m["lower"]) <= set(m["upper"]):
            return "inconsistent pair in output"
        keys.append((mask(m["lower"]), mask(m["upper"])))
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        return "models not sorted or repeated"
    totals = _as_set(m["lower"] for m in models if m["lower"] == m["upper"])
    sem, op = job.semantics, job.operator
    if sem in ("stable", "three-valued-stable") and (op == "ic" or op is None):
        if totals != _as_set(oracle.answer_sets(p)):
            return "total models differ from the oracle's answer sets"
    elif sem == "fixpoints":
        if totals != _as_set(oracle.supported(p)):
            return "total fixpoints differ from the oracle's supported models"
    elif sem == "stable":
        if not totals <= _as_set(oracle.supported(p)):
            return "a total stable fixpoint is not a supported model"
    elif sem == "ht" and op == "ic":
        if {(tuple(m["lower"]), tuple(m["upper"])) for m in models} != {
            (tuple(x), tuple(y)) for x, y in oracle.ht_models(p)
        }:
            return "HT pairs differ from the oracle's here-and-there models"
    elif sem == "seq":
        if not models:
            return "no semi-equilibrium model"
        if op == "ic" and totals and (len(totals) != len(models) or totals != _as_set(oracle.answer_sets(p))):
            return "total semi-equilibrium models differ from the oracle's answer sets"
    elif sem in ("kk", "wf") and len(models) != 1:
        return f"{sem} gave {len(models)} models, not one"
    elif sem == "kk":
        lower, upper = set(models[0]["lower"]), set(models[0]["upper"])
        if not all(lower <= set(z) <= upper for z in oracle.supported(p)):
            return "Kripke-Kleene pair is not below a supported model"
    elif sem == "gz-answer-sets":
        if totals != _as_set(oracle.gz_answer_sets(p)):
            return "answer sets differ from the oracle's reduct answer sets"
    return None


def check_laws(job: Job, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    outcomes = json.loads(out)
    if [name for name, _, _ in outcomes] != list(LAW_NAMES):
        return "law list differs"
    broken = [name for name, ok, _ in outcomes if not ok and name not in LAWS_EXPECTED_TO_FAIL]
    if broken:
        return f"laws violated: {', '.join(broken)}"
    return None

