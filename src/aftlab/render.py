"""Deterministic text and JSON rendering of sets, families, and pairs, and
the writer of `aftlab semantics` output."""

from __future__ import annotations

import json
import sys

from .lattice import ApproxPair, AtomSet, AtomUniverse, Lazy, NdPair, NdSet
from .semantics import SemanticsResult

# Models per write of `write_semantics`.
_CHUNK = 4096


def fmt_set(u: AtomUniverse, s: AtomSet) -> str:
    if not s:
        return "∅"
    return "{" + ",".join(sorted(s, key=u.index)) + "}"


def fmt_family(u: AtomUniverse, family: NdSet) -> str:
    members = sorted(family, key=u.mask)
    return "{" + ", ".join(fmt_set(u, s) for s in members) + "}"


def fmt_pair(u: AtomUniverse, pair: ApproxPair) -> str:
    return f"({fmt_set(u, pair.lower)}, {fmt_set(u, pair.upper)})"


def fmt_nd_pair(u: AtomUniverse, value: NdPair) -> str:
    return f"lower: {fmt_family(u, value.lower_set)}\nupper: {fmt_family(u, value.upper_set)}"


def json_set(u: AtomUniverse, s: AtomSet) -> list[str]:
    return sorted(s, key=u.index)


def json_family(u: AtomUniverse, family: NdSet) -> list[list[str]]:
    return [json_set(u, s) for s in sorted(family, key=u.mask)]


def json_pair(u: AtomUniverse, pair: ApproxPair) -> dict[str, list[str]]:
    return {"lower": json_set(u, pair.lower), "upper": json_set(u, pair.upper)}


def _json_list(items: list[str], indent: int) -> str:
    """The JSON strings `items` as an array laid out as by json.dumps(indent=2),
    one item per line at `indent` spaces."""
    pad = "\n" + " " * indent
    return f"[{pad}{(',' + pad).join(items)}{pad[:-2]}]" if items else "[]"


def write_semantics(result: SemanticsResult, form: str) -> None:
    """Write `result` to sys.stdout as `print` would write its text lines or,
    for form "json", `json.dumps` of the README's payload with indent=2, byte
    for byte. Each distinct side set is rendered once, and the models go out
    _CHUNK at a time."""
    atoms, count = result.universe, len(result.models)
    if form == "json":
        quoted = [json.dumps(a) for a in atoms]
        texts = Lazy(lambda s: _json_list([q for a, q in zip(atoms, quoted) if a in s], 8))
        head = (f'{{\n  "universe": {_json_list(quoted, 4)},\n  "operator": {json.dumps(result.operator)},\n'
                f'  "semantics": {json.dumps(result.kind)},\n  "models": [')
        start, mid, end, sep = '\n    {\n      "lower": ', ',\n      "upper": ', "\n    }", ","
        tail = (("\n  ]" if count else "]") + f',\n  "counts": {{\n    "models": {count},\n    "consistent_pairs": '
                f'{3 ** len(atoms)}\n  }},\n  "program": {json.dumps(result.program_digest)}\n}}\n')
    else:
        texts = Lazy(lambda s: "{" + ",".join(a for a in atoms if a in s) + "}" if s else "∅")
        head = (f"semantics: {result.kind}\noperator: {result.operator or '-'}\n"
                f"universe: {texts[frozenset(atoms)]}\nmodels ({count}):")
        start, mid, end, sep, tail = "\n  (", ", ", ")", "", "\n"
    write = sys.stdout.write
    write(head)
    for at in range(0, count, _CHUNK):
        chunk = [f"{start}{texts[lower]}{mid}{texts[upper]}{end}" for lower, upper in result.models[at:at + _CHUNK]]
        write((sep if at else "") + sep.join(chunk))
    write(tail)
