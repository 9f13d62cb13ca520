"""Deterministic text and JSON rendering of sets, families, and pairs."""

from __future__ import annotations

from .lattice import ApproxPair, AtomSet, AtomUniverse, NdPair, NdSet


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
