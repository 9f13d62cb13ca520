"""Command-line front-end: evaluate operators, run semantics, check laws,
generate random programs.

Exit codes: 0 ok, 1 usage, 2 precondition or class violation, 3 law violation
(or well-founded anomaly).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import corpus, laws, operators as ops, program as prog, render, semantics as sem
from .generator import GeneratorConfig, generate_program
from .lattice import AftlabError, ApproxPair, AtomUniverse
from .operators import OperatorKind
from .program import Program
from .semantics import SemanticsResult, WellFoundedAnomalyError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_LAW = 3


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="aftlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_operator: bool) -> None:
        p.add_argument("--program", required=True, help="path to a .lp program file")
        if with_operator:
            p.add_argument("--operator", choices=[k.value for k in OperatorKind])
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-atoms", type=int, default=None)

    p_eval = sub.add_parser("eval", help="apply an operator at one pair")
    common(p_eval, with_operator=True)
    p_eval.add_argument("--pair", required=True, help='pair as "x;y", atoms comma-separated per side')

    p_sem = sub.add_parser("semantics", help="run a fixpoint semantics")
    common(p_sem, with_operator=True)
    p_sem.add_argument("--semantics", required=True, choices=sem.SEMANTICS_NAMES)

    p_check = sub.add_parser("check", help="run the law suite")
    p_check.add_argument("--all", action="store_true", help="run every law")
    p_check.add_argument("--laws", help="comma-separated law names")
    p_check.add_argument("--programs", type=int, default=200, help="number of random programs")
    p_check.add_argument("--atoms", type=int, default=3)
    p_check.add_argument("--rules", type=int, default=4)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--max-atoms", type=int, default=None)

    p_gen = sub.add_parser("generate", help="generate a seeded random program")
    p_gen.add_argument("--atoms", type=int, default=3)
    p_gen.add_argument("--rules", type=int, default=3)
    p_gen.add_argument("--negation-probability", type=float, default=0.4)
    p_gen.add_argument("--aggregate-probability", type=float, default=0.0)
    p_gen.add_argument("--width", type=int, default=2, help="maximum disjunction width")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _load_program(path: str, max_atoms: int | None) -> Program:
    """Parse and compile the program; compiling refuses a universe above the
    atom cap."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read program file: {exc}") from exc
    p = prog.parse(text)
    p.compile(max_atoms)
    return p


def _parse_pair(u: AtomUniverse, spec: str) -> ApproxPair:
    if ";" not in spec:
        raise UsageError('pair must be given as "x;y"')
    lower_text, upper_text = spec.split(";", 1)

    def side(text: str) -> frozenset[str]:
        names = [part.strip() for part in text.split(",") if part.strip()]
        return u.atom_set(names)

    return ApproxPair(side(lower_text), side(upper_text))


def _cmd_eval(args) -> int:
    p = _load_program(args.program, args.max_atoms)
    if args.operator is None:
        raise UsageError("eval needs --operator")
    kind = OperatorKind(args.operator)
    pair = _parse_pair(p.universe, args.pair)
    value = ops.apply(kind, p, pair)
    u = p.universe
    if args.format == "json":
        payload = {
            "universe": list(u.atoms),
            "operator": kind.value,
            "pair": render.json_pair(u, pair),
            "lower_set": render.json_family(u, value.lower_set),
            "upper_set": render.json_family(u, value.upper_set),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"operator: {kind.value}")
        print(f"pair: {render.fmt_pair(u, pair)}")
        print(render.fmt_nd_pair(u, value))
    return EXIT_OK


def semantics_json(result: SemanticsResult, u: AtomUniverse) -> dict:
    return {
        "universe": list(result.universe),
        "operator": result.operator,
        "semantics": result.kind,
        "models": [render.json_pair(u, i) for i in result.models],
        "counts": {
            "models": len(result.models),
            "consistent_pairs": 3 ** len(result.universe),
        },
        "program": result.program_digest,
    }


def _cmd_semantics(args) -> int:
    p = _load_program(args.program, args.max_atoms)
    kind = OperatorKind(args.operator) if args.operator else None
    result = sem.run_semantics(args.semantics, p, kind)
    u = p.universe
    if args.format == "json":
        print(json.dumps(semantics_json(result, u), indent=2))
    else:
        print(f"semantics: {result.kind}")
        print(f"operator: {result.operator or '-'}")
        print(f"universe: {render.fmt_set(u, u.full())}")
        print(f"models ({len(result.models)}):")
        for i in result.models:
            print(f"  {render.fmt_pair(u, i)}")
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.laws:
        names = [part.strip() for part in args.laws.split(",") if part.strip()]
        if not names:
            raise UsageError("--laws names no law")
    elif args.all:
        names = None
    else:
        raise UsageError("check needs --all or --laws")
    if args.programs < 0:
        raise UsageError("--programs must not be negative")
    if args.rules < 1:
        raise UsageError("--rules must be at least 1")
    programs = laws.suite_programs(args.programs, args.atoms, args.rules, args.seed)
    outcomes = laws.run_laws(programs, names, max_atoms=args.max_atoms)
    ok = all(o.ok for o in outcomes)
    if args.format == "json":
        payload = {
            "ok": ok,
            "programs": len(programs),
            "laws": [
                {"name": o.name, "ok": o.ok, "cases": o.cases, "failure": o.failure}
                for o in outcomes
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for o in outcomes:
            if o.ok:
                print(f"PASS {o.name} (cases={o.cases})")
            else:
                print(f"FAIL {o.name} (cases={o.cases})")
                for line in (o.failure or "").splitlines():
                    print(f"  {line}")
        print(f"{'OK' if ok else 'LAW VIOLATION'}: {sum(o.ok for o in outcomes)}/{len(outcomes)} laws hold "
              f"on {len(programs)} programs")
    return EXIT_OK if ok else EXIT_LAW


def _cmd_generate(args) -> int:
    cfg = GeneratorConfig(
        atoms=args.atoms,
        rules=args.rules,
        negation_probability=args.negation_probability,
        aggregate_probability=args.aggregate_probability,
        disjunction_width=args.width,
        seed=args.seed,
    )
    p = generate_program(cfg)
    if args.format == "json":
        print(json.dumps({"config": cfg.__dict__, "program": p.text}, indent=2))
    else:
        sys.stdout.write(p.text)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "semantics":
            return _cmd_semantics(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "generate":
            return _cmd_generate(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, sem.SemanticsChoiceError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WellFoundedAnomalyError as exc:
        print(f"anomaly: {exc}", file=sys.stderr)
        return EXIT_LAW
    except AftlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
