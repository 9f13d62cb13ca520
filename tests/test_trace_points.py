"""The benchmark's tracer (`perfbench/tracing.py`) finds the functions it wraps
by name, so a renamed or deleted one breaks its traced runs. Building its
wrapper plan, without installing it, reads every one of those names."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from aftlab import operators as ops

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_the_tracer_finds_every_function_it_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    plan = tracing._wrappers(tracing.Tracer())
    assert all(callable(wrapper) for wrapper in plan.values())
    assert all(hasattr(getattr(ops, name), "cache_info") for name in tracing.MEMO)
