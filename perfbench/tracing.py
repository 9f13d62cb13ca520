"""Outside-in tracing of aftlab: timing wrappers installed around each
module's public functions from the benchmark, without touching the package.

Every wrapped call opens a span (name, start, end, parent, job). Self time is
a span's duration minus the time its child spans cover. A full span log would
hold millions of records per job, so spans are folded as they close into a
call tree keyed by the chain of span names (calls, total and self time per
node); the tree is what stays in memory and is written out when the run
ends.

`install()` patches every aftlab module namespace that binds a wrapped
function (for example `semantics.leq_t`, copied there by `from .lattice
import leq_t`), the `laws.LAWS` table, the default `apply_fn` of
`laws.run_laws`, and the `AtomUniverse` methods on the class. It is meant to
run in a freshly forked job process, so it never needs undoing.
"""

from __future__ import annotations

import sys
from time import perf_counter

ORDERS = ("leq_t", "leq_i", "smyth_leq", "hoare_leq", "aprec_leq")
FILTERS = ("minimal_sets", "min_t", "mc")
SWEEPS = (
    "fixpoints",
    "stable_fixpoints",
    "ht_pairs",
    "det_stable_fixpoints",
    "three_valued_stable",
    "gz_answer_sets",
)
# Cached operator functions whose hits and misses make up operators.memo.
MEMO = ("hd", "ic", "ic_lower_set", "ic_upper_set", "_fired_atoms", "dmt_det", "dmt_ndao", "ultimate_ndao", "gz_ndao")


class Tracer:
    """Span stack plus the folded call tree of one job."""

    def __init__(self):
        # node id -> [name, parent node id, calls, total_s, self_s]
        self.nodes: list[list] = [["job", -1, 1, 0.0, 0.0]]
        self.children: dict[tuple[int, str], int] = {}
        # stack frames: [node id, start, time covered by children]
        self.stack: list[list] = [[0, perf_counter(), 0.0]]
        self.counts: dict[str, float] = {}
        self.caches: list = []  # the original cached operator functions

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, name: str) -> list:
        parent = self.stack[-1][0]
        node = self.children.get((parent, name))
        if node is None:
            node = len(self.nodes)
            self.children[(parent, name)] = node
            self.nodes.append([name, parent, 0, 0.0, 0.0])
        frame = [node, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        duration = perf_counter() - frame[1]
        self.stack.pop()
        self.stack[-1][2] += duration
        node = self.nodes[frame[0]]
        node[2] += 1
        node[3] += duration
        node[4] += duration - frame[2]

    def finish(self) -> dict:
        """Close the job span and return the folded tree and the counters."""
        root = self.stack[0]
        duration = perf_counter() - root[1]
        self.nodes[0][3] = duration
        self.nodes[0][4] = duration - root[2]
        entries = sum(fn.cache_info().currsize for fn in self.caches)
        return {"nodes": self.nodes, "counts": self.counts, "memo_entries": entries}


def _span(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        frame = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(frame)

    return wrapper


def _outermost_span(tracer: Tracer, name: str, fn):
    """Span for a recursive function: only calls from outside it open one."""

    def wrapper(*args, **kwargs):
        if tracer.nodes[tracer.stack[-1][0]][0] == name:
            return fn(*args, **kwargs)
        frame = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(frame)

    return wrapper


def _generator_span(tracer: Tracer, name: str, fn):
    """Generator function: each resumption is a span; items are counted."""

    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        tracer.count(f"{name}.calls")
        while True:
            frame = tracer.open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(frame)
            tracer.count(f"{name}.yielded")
            yield item

    return wrapper


def _memo_probe(tracer: Tracer, fn, span: str | None = None):
    """Count hits and misses of an `functools.cache` function from its
    cache_info(); the time of a hit is the cost of hashing the key."""

    def wrapper(*args):
        hits = fn.cache_info().hits
        frame = tracer.open(span) if span else None
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = perf_counter() - start
            if frame is not None:
                tracer.close(frame)
            tracer.count("operators.memo.calls")
            if fn.cache_info().hits > hits:
                tracer.count("operators.memo.hits")
                tracer.count("operators.memo.hit_s", elapsed)
                if span:
                    tracer.count(f"{span}.hits")

    return wrapper


def _hitting_sets(tracer: Tracer, fn):
    def wrapper(heads):
        union = frozenset().union(*heads) if heads else frozenset()
        tracer.count("operators.hitting_sets.candidates", 2 ** len(union))
        frame = tracer.open("operators.hitting_sets")
        try:
            out = fn(heads)
        finally:
            tracer.close(frame)
        tracer.count("operators.hitting_sets.returned", len(out))
        return out

    return wrapper


def _apply(tracer: Tracer, fn):
    def wrapper(kind, p, i):
        frame = tracer.open(f"operators.apply.{kind.value}")
        try:
            return fn(kind, p, i)
        finally:
            tracer.close(frame)

    return wrapper


def _wrappers(tracer: Tracer) -> dict:
    """Map original function -> wrapper, for every traced function."""
    from aftlab import cli, four, laws, lattice, operators, program, render, semantics

    plan = {cli.main: _span(tracer, "cli.main", cli.main)}
    for name in ("json_set", "json_family", "json_pair", "fmt_set", "fmt_family", "fmt_pair", "fmt_nd_pair"):
        fn = getattr(render, name)
        plan[fn] = _span(tracer, "render", fn)
    for name in ("parse", "classify", "eval_body", "eval_aggregate", "body_formula", "gl_transform",
                 "gz_reduct", "print_program"):
        fn = getattr(program, name)
        plan[fn] = _span(tracer, f"program.{name}", fn)
    plan[four.eval_pair] = _outermost_span(tracer, "four.eval_pair", four.eval_pair)
    plan[four.ht_satisfies_rule] = _span(tracer, "four.ht_satisfies_rule", four.ht_satisfies_rule)
    for name in ORDERS:
        fn = getattr(lattice, name)
        plan[fn] = _span(tracer, "lattice.orders", fn)
    plan[operators.apply] = _apply(tracer, operators.apply)
    plan[operators.hitting_sets] = _hitting_sets(tracer, operators.hitting_sets)
    for name in MEMO:
        fn = getattr(operators, name)
        plan[fn] = _memo_probe(tracer, fn, "operators.hd" if name == "hd" else None)
    for name in ("complete_lower_stable", "complete_upper_stable", "is_model", "run_semantics", *SWEEPS):
        fn = getattr(semantics, name)
        plan[fn] = _span(tracer, f"semantics.{name}", fn)
    for name in FILTERS:
        fn = getattr(semantics, name)
        plan[fn] = _span(tracer, "semantics.filters", fn)
    for name, fn in laws.LAWS.items():
        plan[fn] = _span(tracer, f"laws.{name}", fn)
    plan[laws.run_laws] = _span(tracer, "laws.run_laws", laws.run_laws)
    return plan


def install(tracer: Tracer) -> None:
    """Patch the aftlab package in this process to report into `tracer`."""
    from aftlab import laws, operators
    from aftlab.lattice import AtomUniverse

    tracer.caches = [getattr(operators, name) for name in MEMO]
    plan = _wrappers(tracer)
    by_id = {id(fn): wrapper for fn, wrapper in plan.items()}
    run_laws = laws.run_laws
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "aftlab" or mod_name.startswith("aftlab."):
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    setattr(module, attr, by_id[id(value)])
    for name, fn in list(laws.LAWS.items()):
        laws.LAWS[name] = by_id[id(fn)]
    run_laws.__defaults__ = tuple(by_id.get(id(value), value) for value in run_laws.__defaults__)
    AtomUniverse.unmask = _span(tracer, "lattice.unmask", AtomUniverse.unmask)
    for name in ("consistent_pairs", "subsets", "interval"):
        setattr(AtomUniverse, name, _generator_span(tracer, f"lattice.{name}", getattr(AtomUniverse, name)))
