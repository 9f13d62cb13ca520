"""Command-line front-end: evaluate operators, run semantics, check laws,
generate random programs.

Exit codes: 0 ok, 1 usage, 2 precondition or class violation or a failed
write to standard output (a closed pipe ends quietly), 3 law violation (or
well-founded anomaly).
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace
from typing import Sequence

from . import corpus, laws, operators as ops, program as prog, render, semantics as sem
from .generator import GeneratorConfig, generate_program
from .lattice import AftlabError, ApproxPair, AtomUniverse
from .operators import OperatorKind
from .program import Program
from .record import asdict
from .semantics import WellFoundedAnomalyError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_LAW = 3


class UsageError(Exception):
    pass


REQUIRED = object()
_PROGRAM = (str, REQUIRED, "path to a .lp program file")
_OPERATOR = (tuple(k.value for k in OperatorKind), None, "operator")
_FORMAT = (("text", "json"), "text", "output format")
_MAX_ATOMS = (int, None, "atom cap; overrides AFTLAB_MAX_ATOMS and the default of 12")

# The command table: each command's one-line help and its options. An option
# name maps to (kind, default, help): kind is `bool` for a flag, `int`, `float`
# or `str` for a value, or the tuple of the values it accepts; a default of
# REQUIRED makes the option required. `parse_args` reads argv against it and
# `help_text` prints it.
COMMANDS = {
    "eval": ("apply an operator at one pair", {
        "--program": _PROGRAM,
        "--operator": _OPERATOR,
        "--format": _FORMAT,
        "--max-atoms": _MAX_ATOMS,
        "--pair": (str, REQUIRED, 'pair as "x;y", atoms comma-separated per side'),
    }),
    "semantics": ("run a fixpoint semantics", {
        "--program": _PROGRAM,
        "--operator": _OPERATOR,
        "--format": _FORMAT,
        "--max-atoms": _MAX_ATOMS,
        "--semantics": (sem.SEMANTICS_NAMES, REQUIRED, "semantics"),
    }),
    "check": ("run the law suite", {
        "--all": (bool, False, "run every law"),
        "--laws": (str, None, "comma-separated law names"),
        "--programs": (int, 200, "number of random programs"),
        "--atoms": (int, 3, "atoms per random program"),
        "--rules": (int, 4, "rules per random program"),
        "--seed": (int, 0, "seed of the random programs"),
        "--format": _FORMAT,
        "--max-atoms": _MAX_ATOMS,
    }),
    "generate": ("generate a seeded random program", {
        "--atoms": (int, 3, "number of atoms"),
        "--rules": (int, 3, "number of rules"),
        "--negation-probability": (float, 0.4, "probability of a negated body literal"),
        "--aggregate-probability": (float, 0.0, "probability of an aggregate body literal"),
        "--width": (int, 2, "maximum disjunction width"),
        "--seed": (int, REQUIRED, "random seed"),
        "--format": _FORMAT,
    }),
}
HELP = ("-h", "--help")
# argparse's test for a value that merely looks like a negative number.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


def _classify(token: str, names: Sequence[str]) -> tuple[str | None, str | None] | None:
    """None if `token` is a value, else (the option it names among `names`,
    or None for an unknown option; the value after its `=`, or None). Reads
    a token as argparse does: `--name=value`, a unique prefix of a long name,
    and `-hX` as `-h` given the value X; an ambiguous prefix is refused."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token in names:
        return token, None
    if token.startswith("--"):
        name, eq, value = token.partition("=")
        matches = [name] if name in names else [n for n in names if n.startswith(name)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token.startswith("-h"):
        return "-h", token[2:]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _value(name: str, kind, text: str):
    if isinstance(kind, tuple):
        if text not in kind:
            raise UsageError(f"argument {name}: invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})")
        return text
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"argument {name}: invalid {kind.__name__} value: {text!r}") from None


def _no_value(name: str, value: str | None) -> None:
    if value is not None:
        raise UsageError(f"argument {name}: ignored explicit argument {value!r}")


def parse_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """Read argv against COMMANDS: the command's options as a namespace with
    `command` and one attribute per option, or None once `-h`/`--help` has
    printed its help. Refuses what argparse refuses with UsageError: a
    missing or unknown command, an unknown option, a missing value, a bad
    number or choice, a missing required option. An option given twice keeps
    its last value; everything from a `--` on is unrecognized."""
    extras: list[str] = []
    for at, token in enumerate(argv):
        kind = _classify(token, HELP)
        if kind is None:
            break
        if kind[0] is None:
            extras.append(token)
            continue
        _no_value("-h/--help", kind[1])
        print(help_text())
        return None
    else:
        raise UsageError("the following arguments are required: command")
    command = argv[at]
    if command not in COMMANDS:
        raise UsageError(f"argument command: invalid choice: {command!r} "
                         f"(choose from {', '.join(map(repr, COMMANDS))})")
    options = COMMANDS[command][1]
    tokens = list(argv[at + 1:])
    if "--" in tokens:  # as in argparse, no token from a "--" on names an option or is read as a value
        cut = tokens.index("--")
        extras += tokens[cut:]
        del tokens[cut:]
    names = (*options, *HELP)
    kinds = [_classify(token, names) for token in tokens]
    values = {"command": command}
    values.update((_dest(name), default) for name, (_, default, _) in options.items() if default is not REQUIRED)
    i = 0
    while i < len(tokens):
        token, kind = tokens[i], kinds[i]
        i += 1
        if kind is None or kind[0] is None:
            extras.append(token)
            continue
        name, value = kind
        if name in HELP:
            _no_value("-h/--help", value)
            print(help_text(command))
            return None
        option_kind = options[name][0]
        if option_kind is bool:
            _no_value(name, value)
            values[_dest(name)] = True
            continue
        if value is None:
            if i == len(tokens) or kinds[i] is not None:
                raise UsageError(f"argument {name}: expected one argument")
            value = tokens[i]
            i += 1
        values[_dest(name)] = _value(name, option_kind, value)
    missing = [name for name, (_, default, _) in options.items() if default is REQUIRED and _dest(name) not in values]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def help_text(command: str | None = None) -> str:
    """The commands, or one command's options with their choices and
    defaults, from COMMANDS."""
    if command is None:
        head = f"usage: aftlab {{{','.join(COMMANDS)}}} [options]\n\n{__doc__}\ncommands:"
        rows = [(name, summary) for name, (summary, _) in COMMANDS.items()]
        tail = ("\n\nOptions are given as `--name value` or `--name=value`; a unique prefix of a name will do.\n"
                "`aftlab COMMAND --help` lists the options of a command.")
    else:
        summary, options = COMMANDS[command]
        head = f"usage: aftlab {command} [options]\n\n{summary}\n\noptions:"
        rows = []
        for name, (kind, default, text) in options.items():
            if kind is bool:
                rows.append((name, text))
                continue
            if isinstance(kind, tuple):
                text += f": {', '.join(kind)}"
            note = "required" if default is REQUIRED else f"default: {'none' if default is None else default}"
            meta = "CHOICE" if isinstance(kind, tuple) else "TEXT" if kind is str else kind.__name__.upper()
            rows.append((f"{name} {meta}", f"{text} ({note})"))
        rows.append((", ".join(HELP), "show this help and exit"))
        tail = ""
    width = max(len(left) for left, _ in rows)
    return head + "".join(f"\n  {left:<{width}}  {right}" for left, right in rows) + tail


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


def _cmd_semantics(args) -> int:
    p = _load_program(args.program, args.max_atoms)
    kind = OperatorKind(args.operator) if args.operator else None
    render.write_semantics(sem.run_semantics(args.semantics, p, kind), args.format)
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.all and args.laws is not None:
        raise UsageError("check takes --all or --laws, not both")
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
        print(json.dumps({"config": asdict(cfg), "program": p.text}, indent=2))
    else:
        sys.stdout.write(p.text)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        run = {"eval": _cmd_eval, "semantics": _cmd_semantics, "check": _cmd_check, "generate": _cmd_generate}
        code = EXIT_OK if args is None else run[args.command](args)
        sys.stdout.flush()
        return code
    except (UsageError, sem.SemanticsChoiceError, laws.UnknownLawError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WellFoundedAnomalyError as exc:
        print(f"anomaly: {exc}", file=sys.stderr)
        return EXIT_LAW
    except AftlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:  # a failed write to stdout; a program file that cannot be read is a usage error
        if sys.stdout is sys.__stdout__:  # so that the interpreter's flush at exit meets no second failure
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
