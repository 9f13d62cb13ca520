"""Per-layer metrics of a traced run, and what each one should move.

BENCHMARK.json lists the per-layer metrics with their units; `MOVES` maps
each one to the end-to-end metric it should move on which workload. It is
the map that later changes cite before they claim a gain, and the traced run
prints it next to each value. Span metrics sum over all traced jobs of the
run: `.calls` counts spans, `.self_s` is span time minus child-span time,
`laws.<law>.s` is the law's whole time. Counts repeat exactly between two
traced runs of one seed.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import LAW_NAMES

SPEC_FILE = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
GENERATORS = ("lattice.consistent_pairs", "lattice.subsets", "lattice.interval")

_SPAN_SETS = (
    ("cli.main", ("self_s",), "job_s_p50 on four-valued and interval (fixed cost of small jobs)"),
    ("render", ("calls", "self_s"), "job_s_p50 on four-valued and interval (fixed cost of small jobs)"),
    ("program.parse", ("calls", "self_s"), "job_s_p50 on four-valued and interval; setup_s on law-suite"),
    ("program.classify", ("calls", "self_s"), "total_s on four-valued (runs on every complete-stable call)"),
    ("program.eval_body", ("calls", "self_s"), "total_s on interval"),
    ("program.eval_aggregate", ("calls", "self_s"), "total_s on interval"),
    ("program.body_formula", ("calls", "self_s"), "total_s on four-valued"),
    ("program.gl_transform", ("calls", "self_s"), "total_s on four-valued"),
    ("program.gz_reduct", ("calls", "self_s"), "total_s on four-valued"),
    ("four.eval_pair", ("calls", "self_s"), "total_s on four-valued; about 0 on interval (no change predicted)"),
    ("four.ht_satisfies_rule", ("calls", "self_s"), "total_s on law-suite"),
    ("lattice.consistent_pairs", ("yielded", "self_s"), "total_s on all three workloads"),
    ("lattice.subsets", ("yielded", "self_s"), "total_s on four-valued and law-suite"),
    ("lattice.interval", ("calls", "yielded", "self_s"),
     "total_s on interval (about 4^n sets yielded per sweep, 3^n after an interval DP); about 0 on four-valued"),
    ("lattice.unmask", ("calls", "self_s"), "total_s on law-suite"),
    ("lattice.orders", ("calls", "self_s"), "total_s on law-suite; job_s_p90 on seq jobs"),
    *(
        (f"operators.apply.{kind}", ("calls", "self_s"), f"total_s on the workload that hosts {kind}"
         + (" (four-valued)" if kind == "ic" else " (interval)"))
        for kind in ("ic", "dmt", "ultimate", "gz", "dmt-det")
    ),
    ("operators.hitting_sets", ("calls", "self_s"),
     "total_s on four-valued and on interval (dmt jobs); small on law-suite"),
    ("semantics.complete_lower_stable", ("calls", "self_s"), "total_s on four-valued and interval"),
    ("semantics.complete_upper_stable", ("calls", "self_s"), "total_s on four-valued and interval"),
    *(
        (f"semantics.{sweep}", ("self_s",), "total_s on the workload that hosts the sweep")
        for sweep in ("fixpoints", "stable_fixpoints", "ht_pairs", "det_stable_fixpoints",
                      "three_valued_stable", "gz_answer_sets")
    ),
    ("semantics.is_model", ("calls", "self_s"), "total_s on four-valued"),
    ("semantics.filters", ("self_s",), "job_s_p90 on four-valued and interval (seq jobs)"),
)

MOVES: dict[str, str] = {
    f"{span}.{field}": moves for span, fields, moves in _SPAN_SETS for field in fields
}
MOVES.update({
    "operators.hitting_sets.candidates":
        "computed from the argument as the sum of 2^|union H|; total_s on four-valued and interval (dmt)",
    "operators.hitting_sets.yield_ratio": "members returned / candidates; total_s on four-valued and interval (dmt)",
    "operators.hd.calls": "total_s on interval",
    "operators.hd.hit_ratio": "total_s on interval",
    "operators.memo.calls": "total_s on interval and law-suite",
    "operators.memo.hit_ratio": "total_s on interval and law-suite",
    "operators.memo.hit_s": "time inside cache hits (key hashing); total_s on interval and law-suite",
    "operators.memo.entries": "largest cache size of one job; peak_rss_mb on four-valued",
    **{f"laws.{law}.s": "total_s on law-suite" for law in LAW_NAMES},
    "laws.cases": "exact; must not move",
    "trace.total_s": "traced total_s of the traced jobs",
    "trace.overhead_s": "traced total_s minus untraced total_s over the same jobs",
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(untraced: list, traced: list, job_seconds) -> tuple[dict, list[dict]]:
    """Metrics {name: (value, unit)} and the call tree merged over jobs.
    job_seconds(result) gives a job's time as the end-to-end total_s counts it."""
    spans: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
    counts: dict[str, float] = {}
    tree: dict[str, list[float]] = {}
    memo_entries = 0
    law_cases = 0
    for job, result, _ in traced:
        if "trace" not in result:
            continue
        nodes = result["trace"]["nodes"]
        paths = []
        for name, parent, calls, total, own in nodes:
            paths.append(name if parent < 0 else f"{paths[parent]};{name}")
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            node = tree.setdefault(paths[-1], [0, 0.0, 0.0])
            for a in (acc, node):
                a[0] += calls
                a[1] += total
                a[2] += own
        for key, value in result["trace"]["counts"].items():
            counts[key] = counts.get(key, 0) + value
        memo_entries = max(memo_entries, result["trace"]["memo_entries"])
        if job.semantics is None and result["code"] == 0:
            law_cases += sum(cases for _, _, cases in json.loads(result["out"]))

    def span(name: str, field: str) -> float:
        calls, total, own = spans.get(name, (0, 0.0, 0.0))
        if name in GENERATORS and field != "self_s":
            return counts.get(f"{name}.{field}", 0)
        return {"calls": calls, "self_s": own, "s": total}[field]

    traced_total = sum(job_seconds(r) for _, r, _ in traced if "job_s" in r)
    untraced_total = sum(job_seconds(r) for _, r, _ in untraced if "job_s" in r)
    special = {
        "operators.hitting_sets.candidates": counts.get("operators.hitting_sets.candidates", 0),
        "operators.hitting_sets.yield_ratio": _ratio(
            counts.get("operators.hitting_sets.returned", 0), counts.get("operators.hitting_sets.candidates", 0)),
        "operators.hd.calls": span("operators.hd", "calls"),
        "operators.hd.hit_ratio": _ratio(counts.get("operators.hd.hits", 0), span("operators.hd", "calls")),
        "operators.memo.calls": counts.get("operators.memo.calls", 0),
        "operators.memo.hit_ratio": _ratio(counts.get("operators.memo.hits", 0), counts.get("operators.memo.calls", 0)),
        "operators.memo.hit_s": counts.get("operators.memo.hit_s", 0.0),
        "operators.memo.entries": memo_entries,
        "laws.cases": law_cases,
        "trace.total_s": traced_total,
        "trace.overhead_s": traced_total - untraced_total,
    }
    metrics = {}
    for entry in json.loads(SPEC_FILE.read_text(encoding="utf-8"))["per_layer"]:
        name, unit = entry["name"], entry["unit"]
        if name in special:
            metrics[name] = (special[name], unit)
        else:
            base, field = name.rsplit(".", 1)
            metrics[name] = (span(base, field), unit)
    call_tree = [
        {"path": path, "calls": calls, "total_s": round(total, 6), "self_s": round(own, 6)}
        for path, (calls, total, own) in sorted(tree.items(), key=lambda item: -item[1][2])
    ]
    return metrics, call_tree
