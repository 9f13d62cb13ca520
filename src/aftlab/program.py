"""Program AST, parser, printer, classification, aggregate evaluation, and the
program-level transformations (GL transformation, GZ reduct).

Grammar (UTF-8, '%' comments to end of line):

    rule    := head ":-" body "." | head "." | head ":- ."
    head    := atom ("|" atom)*
    body    := lit ("," lit)* | formula          (formula only when aggregate-free)
    lit     := ["not"] (atom | agg)
    agg     := "#" func "{" entry (";" entry)* "}" cmp number
    entry   := number ("," number)* ":" atom ("&" atom)*
    func    := "sum" | "count" | "max"
    cmp     := "<" | "<=" | ">" | ">=" | "="
    formula := atom | "not" formula | formula "&" formula | formula "|" formula
             | "(" formula ")" | "#true" | "#false"

U and C are not in the grammar, and `_check_rules` refuses a body holding
one; only `gl_transform`'s output, which nothing compiles, holds them.

Weights and bounds are exact rationals: an integral one ("2", "-1", "2.0",
"4/2") is an `int`, any other ("1/2", "0.5") a `fractions.Fraction`, and
their sums and comparisons are exact (an int plus a Fraction is a Fraction).
`fractions` is imported only to read a number with a '.' or a '/'.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import reduce
from itertools import islice
from operator import eq, ge, gt, le, lt, or_
from typing import TYPE_CHECKING, Iterator, Union

from . import four
from .lattice import (
    AftlabError,
    ApproxPair,
    AtomSet,
    AtomUniverse,
    CapExceededError,
    InconsistentPairError,
    Lazy,
    atom_cap,
    hitting_row,
)
from .four import LOWER_BIT, TRUE_BITS, UPPER_BIT, Formula, Truth
from .record import record

# The interpreter's built-in SHA-256, bound at import and so before any fork:
# `hashlib` loads OpenSSL, whose pages each forked job faults in on its first digest.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

if TYPE_CHECKING:
    from fractions import Fraction


class ParseError(AftlabError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class ProgramClassError(AftlabError):
    """A transformation or operator was applied to the wrong program class."""


class FormulaDepthError(AftlabError):
    """A formula body nests its connectives deeper than `MAX_FORMULA_DEPTH`."""


class AggFunc(Enum):
    SUM = "sum"
    COUNT = "count"
    MAX = "max"


class Comparator(Enum):
    LT = "<"
    LE = "<="
    GE = ">="
    GT = ">"
    EQ = "="


@record
class SetTermEntry:
    weights: tuple[int | Fraction, ...]
    condition: tuple[str, ...]  # non-empty conjunction of atoms


@record
class SetTerm:
    entries: tuple[SetTermEntry, ...]


@record
class AggregateAtom:
    func: AggFunc
    term: SetTerm
    comparator: Comparator
    bound: int | Fraction


@record
class PositiveAtom:
    name: str


@record
class NegatedAtom:
    name: str


@record
class PositiveAgg:
    agg: AggregateAtom


@record
class NegatedAgg:
    agg: AggregateAtom


BodyLiteral = Union[PositiveAtom, NegatedAtom, PositiveAgg, NegatedAgg]


@record
class Conj:
    items: tuple[BodyLiteral, ...]


@record
class GeneralFormula:
    formula: Formula


Body = Union[Conj, GeneralFormula]


@record
class Rule:
    head: tuple[str, ...]  # sorted, deduplicated, non-empty
    body: Body

    def head_set(self) -> AtomSet:
        return frozenset(self.head)


@record
class Program:
    """An immutable program. Its hash, digest and compiled form are computed
    the first time they are needed and then kept outside its fields, so
    pickles leave them behind (str hashes are salted per process)."""

    __slots__ = ("__dict__",)
    rules: tuple[Rule, ...]
    universe: AtomUniverse

    @property
    def text(self) -> str:
        return print_program(self)

    def __str__(self) -> str:
        return self.text

    def __hash__(self) -> int:
        # Every operator memo is keyed by the program; rehashing each rule,
        # literal and weight on every lookup cost more than the operators.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.__class__, self.rules, self.universe))
            self.__dict__["_hash"] = h
        return h

    def compile(self, max_atoms: int | None = None) -> "Compiled":
        """The compiled form, built on first use and then kept in the
        program's dict as `_compiled`.

        The one place the atom cap (`lattice.atom_cap`) is decided: raises
        CapExceededError when the universe has more atoms than the cap, when
        the form is built and whenever `max_atoms` is given.
        """
        compiled = self.__dict__.get("_compiled")
        if compiled is None or max_atoms is not None:
            cap = atom_cap(max_atoms)
            if len(self.universe) > cap:
                raise CapExceededError(f"universe has {len(self.universe)} atoms, cap is {cap}")
            if compiled is None:
                compiled = Compiled(self)
                self.__dict__["_compiled"] = compiled
        return compiled


SHAPE_NORMAL = "normal"
SHAPE_DISJUNCTIVE = "disjunctively_normal"
SHAPE_GENERAL = "general"


@record
class Classification:
    shape: str
    has_aggregates: bool
    has_negated_aggregates: bool
    atomic_heads: bool

    @property
    def aggregate_free(self) -> bool:
        return not self.has_aggregates

    @property
    def plain(self) -> bool:
        """Disjunctively normal and aggregate-free: every body a conjunction
        of atoms and negated atoms."""
        return self.shape != SHAPE_GENERAL and not self.has_aggregates


class CompiledRule:
    """A rule over its program's universe: its `head` set, `head_mask` and
    `head_bit`, its bit among the program's distinct heads (`Compiled.heads`
    sets it; 0 on a rule compiled alone). A conjunctive body is read as the
    mask `pos` of its positive atoms, the mask `neg` of its negated atoms and
    its aggregate literals `aggs`, each a `CompiledAggregate`; a general body
    keeps its `formula`."""

    # Plain classes, not dataclasses: creating a frozen dataclass takes about
    # 0.7 ms at import, and every CLI run pays the import.
    __slots__ = ("head", "head_mask", "head_bit", "pos", "neg", "aggs", "formula")

    def __init__(self, u: AtomUniverse, rule: Rule):
        self.head = rule.head_set()
        self.head_mask = u.mask(rule.head)
        self.head_bit = 0
        self.pos = self.neg = 0
        self.aggs: tuple[CompiledAggregate, ...] = ()
        self.formula: Formula | None = None
        if isinstance(rule.body, GeneralFormula):
            self.formula = rule.body.formula
            u.mask(four.formula_atoms(self.formula))
            return
        items = rule.body.items
        self.pos = u.mask(lit.name for lit in items if isinstance(lit, PositiveAtom))
        self.neg = u.mask(lit.name for lit in items if isinstance(lit, NegatedAtom))
        self.aggs = tuple(CompiledAggregate(u, lit) for lit in items if isinstance(lit, (PositiveAgg, NegatedAgg)))

    def bits(self, u: AtomUniverse, xm: int, ym: int) -> int:
        """The two bits (`four.Truth`) of the body value at the pair of
        masks (xm, ym): the lower bit (>=_t C) is its truth at x with negation
        read at y, the upper bit (>=_t U) its truth at y with negation read
        at x. Aggregate literals take their trivial approximation
        (`CompiledAggregate.trivial`), general bodies `four.eval_pair`.
        Swapping x and y swaps the two bits (no body holds U or C)."""
        if self.formula is not None:
            return four.eval_pair(u, u.pair(xm, ym), self.formula).value
        bits = (not self.pos & ~xm and not self.neg & ym) << 1 | (not self.pos & ~ym and not self.neg & xm)
        for a in self.aggs:
            if not bits:
                break
            bits &= a.trivial(xm, ym)
        return bits

    def holds(self, u: AtomUniverse, xm: int) -> bool:
        """Two-valued truth of the body at the set with mask xm: its bits at
        the total pair (xm, xm) are T."""
        return self.bits(u, xm, xm) == TRUE_BITS


class CompiledAggregate:
    """An aggregate literal over its program's universe: its aggregate `agg`,
    whether it is `positive`, and per entry the mask of its condition with
    its first weight, `entries`. A set holds a condition iff the mask lies
    within it."""

    __slots__ = ("agg", "positive", "entries")

    def __init__(self, u: AtomUniverse, lit: PositiveAgg | NegatedAgg):
        self.agg = lit.agg
        self.positive = isinstance(lit, PositiveAgg)
        self.entries = tuple((u.mask(entry.condition), entry.weights[0]) for entry in lit.agg.term.entries)

    def holds(self, xm: int) -> bool:
        """Two-valued truth of the literal at the set with mask xm; an
        undefined aggregate makes it false either way round."""
        truth, defined = _aggregate_truth(self.agg, [w for c, w in self.entries if not c & ~xm])
        return defined and (truth is Truth.T) == self.positive

    def trivial(self, xm: int, ym: int) -> int:
        """The two bits (`four.Truth`) of the literal's trivial approximation
        at the pair of masks (xm, ym). Where every entry condition has the
        same truth at x and at y (is T or F), both give the same multiset and
        the literal takes its two-valued value. Otherwise its lower reading
        holds iff some condition holds at x but not at y (is C), and its upper
        reading iff some condition holds at y but not at x (is U); so on a
        consistent pair the value is exact or U."""
        seen = {(not c & ~xm) << 1 | (not c & ~ym) for c, _ in self.entries}
        # C has the lower bit alone and U the upper bit alone; F has neither.
        inexact = (LOWER_BIT in seen) << 1 | (UPPER_BIT in seen)
        return inexact or (TRUE_BITS if self.holds(xm) else 0)


class Compiled:
    """What the operators read of a program, built once by `Program.compile`.
    `heads` are its distinct rule heads in rule order: a head family is read
    as an int, bit k for `heads[k]`. `base` and `families` fill themselves on
    the first read of a key (`lattice.Lazy`): `base[xm]` is the int of the
    heads of the rules whose bodies hold at the set with mask xm and the mask
    of their atoms, `families[heads]` the hitting-set row of the head family
    with that int (`lattice.hitting_row`). `pair_planes` keeps each distinct
    `operators.PairPlanes` a sweep has asked for (`operators.pair_planes`),
    `stable_rows` each row of `operators.stable_rows`."""

    __slots__ = ("rules", "heads", "classification", "pair_planes", "stable_rows", "families", "base")

    def __init__(self, p: Program):
        _check_rules(p.rules)
        u = p.universe
        rules = self.rules = tuple(CompiledRule(u, r) for r in p.rules)
        heads = self.heads = tuple(dict.fromkeys(r.head for r in rules))
        for r in rules:
            r.head_bit = 1 << heads.index(r.head)
        self.classification = classify(p)
        self.pair_planes: dict = {}
        self.stable_rows: dict = {}

        # The fills read locals, not the compiled form, so it is freed without a cycle collection.
        def base(xm: int) -> tuple[int, int]:
            fired = [r for r in rules if r.holds(u, xm)]
            return reduce(or_, [r.head_bit for r in fired], 0), reduce(or_, [r.head_mask for r in fired], 0)

        self.base = Lazy(base)
        self.families = Lazy(
            lambda family: hitting_row(len(u), [u.mask(h) for k, h in enumerate(heads) if family >> k & 1])
        )


def _rule_atoms(rule: Rule) -> set[str]:
    atoms = set(rule.head)
    if isinstance(rule.body, GeneralFormula):
        atoms |= four.formula_atoms(rule.body.formula)
        return atoms
    for lit in rule.body.items:
        if isinstance(lit, (PositiveAtom, NegatedAtom)):
            atoms.add(lit.name)
        else:
            for entry in lit.agg.term.entries:
                atoms.update(entry.condition)
    return atoms


def _inexact_constant(f: Formula) -> bool:
    """Whether the formula holds the truth constant U or C."""
    if isinstance(f, (four.Atom, four.Const)):
        return isinstance(f, four.Const) and f.value in (Truth.U, Truth.C)
    return any(map(_inexact_constant, (f.operand,) if isinstance(f, four.Not) else (f.left, f.right)))


def _check_rules(rules: tuple[Rule, ...]) -> None:
    """Refuse a rule with an empty head, which no set hits and the printer
    cannot write, and a formula body nested deeper than `MAX_FORMULA_DEPTH`
    or holding U or C, which keeps one bit only at a total pair."""
    for rule in rules:
        if not rule.head:
            raise AftlabError("a rule needs at least one head atom")
        if isinstance(rule.body, GeneralFormula):
            f, head = rule.body.formula, " | ".join(rule.head)
            if four.formula_depth(f) > MAX_FORMULA_DEPTH:
                raise FormulaDepthError(
                    f"the body of a rule with head {head} nests deeper than {MAX_FORMULA_DEPTH} levels"
                )
            if _inexact_constant(f):
                raise AftlabError(f"the body of a rule with head {head} holds the truth constant U or C")


def make_program(rules: tuple[Rule, ...], universe: AtomUniverse | None = None) -> Program:
    """A program of the rules, over the atoms they mention unless a universe
    is given. Empty heads, formula bodies nested deeper than
    `MAX_FORMULA_DEPTH` and bodies holding U or C are refused, as the
    parser refuses them, before anything recurses into them."""
    _check_rules(rules)
    if universe is None:
        atoms: set[str] = set()
        for rule in rules:
            atoms |= _rule_atoms(rule)
        universe = AtomUniverse.of(atoms)
    return Program(rules, universe)


def classify(p: Program) -> Classification:
    shape = SHAPE_NORMAL
    has_aggs = False
    has_neg_aggs = False
    atomic_heads = True
    for rule in p.rules:
        atomic_heads = atomic_heads and len(rule.head) == 1
        if isinstance(rule.body, GeneralFormula):
            shape = SHAPE_GENERAL
            continue
        if not atomic_heads and shape != SHAPE_GENERAL:
            shape = SHAPE_DISJUNCTIVE
        for lit in rule.body.items:
            if isinstance(lit, PositiveAgg):
                has_aggs = True
            elif isinstance(lit, NegatedAgg):
                has_aggs = True
                has_neg_aggs = True
    return Classification(shape, has_aggs, has_neg_aggs, atomic_heads)


def program_hash(p: Program) -> str:
    """The first 12 hex digits of the SHA-256 of `p.text` in UTF-8, as
    `hashlib.sha256` gives them; computed once per program."""
    digest = p.__dict__.get("_digest")  # computed once, kept outside the fields as `_hash` is
    if digest is None:
        digest = p.__dict__["_digest"] = _sha256(p.text.encode()).hexdigest()[:12]
    return digest


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

# Formulas are walked recursively (parsed, evaluated, printed, hashed), so the
# parser refuses one whose connectives and parentheses nest deeper than this,
# and `make_program` and `Program.compile` one built through the API whose
# connectives do; Python stops recursing at 1000 frames.
MAX_FORMULA_DEPTH = 128

_HASH_CONSTS = {"#true": four.TRUE, "#false": four.FALSE}
_AGG_FUNCS = {"#sum": AggFunc.SUM, "#count": AggFunc.COUNT, "#max": AggFunc.MAX}
_COMPARATORS = {c.value: c for c in Comparator}

# A token is a tuple (kind, text, line, column); its kind is "ident", "number",
# "hash", "eof" or the punctuation itself.
_Token = tuple[str, str, int, int]


def _token_pattern(digits: str = "", numerals: str = "") -> re.Pattern:
    """The tokens as one regex. An identifier starts with a letter (in the
    sense of `str.isalpha`) or '_' and goes on with word characters (`\\w`,
    `str.isalnum` or '_'); a number is digits (`str.isdigit`), a '-' before a
    digit, and '.' or '/' before a digit; a hash is '#' and letters. The regex
    `\\d` accepts the decimal digits only, so the text's other digits
    (superscripts, circled digits) come as `digits` and the word characters
    that are neither letters nor digits (fractions, Roman numerals) as
    `numerals`. Each match takes the blanks before its token, which is
    group `kind` of the match; a comment, and the blanks at the end of the
    text, are a match without a kind."""
    d = rf"[\d{digits}]"
    return re.compile(
        rf"""[ \t\r]* (?: (?P<newline>\n) | %[^\n]*
        | (?P<ident>[^\W\d{digits}{numerals}]\w*)
        | (?P<number>(?:{d}|-(?={d}))(?:{d}|[./](?={d}))*)
        | (?P<hash>\#[^\W\d_{digits}{numerals}]*)
        | (?P<punct>:-|<=|>=|[.|,;:&(){{}}<>=])
        | (?P<other>.) | \Z )""",
        re.VERBOSE | re.DOTALL,
    )


_TOKENS = _token_pattern()


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    tokens_re = _TOKENS
    if not text.isascii():
        odd = [c for c in set(text) if c.isalnum() and not (c.isalpha() or c.isdecimal())]
        if odd:
            digits = "".join(c for c in odd if c.isdigit())
            tokens_re = _token_pattern(digits, "".join(c for c in odd if not c.isdigit()))
    line, line_start = 1, 0
    for m in tokens_re.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "other":
            raise ParseError(f"unexpected character {m[kind]!r}", line, m.start(kind) - line_start + 1)
        else:
            word = m[kind]
            tokens.append((word if kind == "punct" else kind, word, line, m.start(kind) - line_start + 1))
    # Columns count the characters before a token on its line, comments
    # excepted; only the end of input can follow a comment on its line.
    comment = text.find("%", line_start)
    tokens.append(("eof", "", line, (len(text) if comment < 0 else comment) - line_start + 1))
    return tokens


def _error(message: str, tok: _Token) -> ParseError:
    return ParseError(message, tok[2], tok[3])


def _unknown_hash(tok: _Token, what: str) -> ParseError:
    """A '#' word that is no `what` ("constant" or "aggregate function
    symbol"). `#u` and `#c`, the four-valued constants, get one message in
    either body kind."""
    if tok[1] in ("#u", "#c"):
        return _error(f"truth constant {tok[1]!r} is not in the language; write #true or #false", tok)
    return _error(f"unknown {what} {tok[1]!r}", tok)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0  # parentheses and negations open around the formula being parsed

    def peek(self) -> _Token:
        return self.tokens[self.pos]  # `next` stops at the closing "eof"

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok[0] != kind:
            raise _error(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok)
        return self.next()

    def fail(self, message: str) -> None:
        raise _error(message, self.peek())

    def atom_name(self) -> str:
        kind, text, _, _ = self.peek()
        if kind != "ident" or text == "not":
            self.fail("expected atom")
        self.next()
        return text

    def number(self) -> int | Fraction:
        """An integral number as an `int`, any other as a `Fraction`."""
        tok = self.expect("number")
        text = tok[1]
        try:
            if "." not in text and "/" not in text:
                return int(text)
            from fractions import Fraction  # here: only a number with a '.' or a '/' needs it

            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise _error(f"bad number {text!r}", tok) from None
        return value.numerator if value.denominator == 1 else value

    # -- rules ------------------------------------------------------------

    def program(self) -> tuple[Rule, ...]:
        rules = []
        while not self.at("eof"):
            rules.append(self.rule())
        return tuple(rules)

    def rule(self) -> Rule:
        head = [self.atom_name()]
        while self.at("|"):
            self.next()
            head.append(self.atom_name())
        if self.at("."):
            self.next()
            return Rule(tuple(sorted(set(head))), Conj(()))
        self.expect(":-")
        if self.at("."):
            self.next()
            return Rule(tuple(sorted(set(head))), Conj(()))
        body = self.body()
        self.expect(".")
        return Rule(tuple(sorted(set(head))), body)

    def body(self) -> Body:
        if self._body_is_formula():
            return GeneralFormula(self.formula())
        items = [self.literal()]
        while self.at(","):
            self.next()
            items.append(self.literal())
        return Conj(tuple(items))

    def _body_is_formula(self) -> bool:
        """Scan ahead to the rule-terminating '.' deciding the body alternative.

        '&', '|' and parentheses at aggregate-brace depth 0 only occur in
        formulas, as do the truth constants. The tokens end with "eof", so
        the scan returns or raises by then.
        """
        depth = 0
        for tok in islice(self.tokens, self.pos, None):
            kind = tok[0]
            if kind == "{":
                depth += 1
            elif kind == "}":
                depth -= 1
            elif kind == "eof":
                raise _error("missing '.' at end of rule", tok)
            elif depth:
                continue
            elif kind == ".":
                return False
            elif kind in ("&", "|", "(", ")") or tok[1] in _HASH_CONSTS:
                return True

    def literal(self) -> BodyLiteral:
        negated = False
        if self.peek()[1] == "not":  # only an identifier reads "not"
            self.next()
            negated = True
        if self.at("hash"):
            agg = self.aggregate()
            return NegatedAgg(agg) if negated else PositiveAgg(agg)
        name = self.atom_name()
        return NegatedAtom(name) if negated else PositiveAtom(name)

    def aggregate(self) -> AggregateAtom:
        tok = self.expect("hash")
        if tok[1] not in _AGG_FUNCS:
            raise _unknown_hash(tok, "aggregate function symbol")
        func = _AGG_FUNCS[tok[1]]
        self.expect("{")
        entries = [self.entry()]
        while self.at(";"):
            self.next()
            entries.append(self.entry())
        self.expect("}")
        comparator = _COMPARATORS.get(self.peek()[0])
        if comparator is None:
            self.fail("expected comparison operator")
        self.next()
        return AggregateAtom(func, SetTerm(tuple(entries)), comparator, self.number())

    def entry(self) -> SetTermEntry:
        weights = [self.number()]
        while self.at(","):
            self.next()
            weights.append(self.number())
        self.expect(":")
        condition = [self.atom_name()]
        while self.at("&"):
            self.next()
            condition.append(self.atom_name())
        return SetTermEntry(tuple(weights), tuple(condition))

    # -- formulas ----------------------------------------------------------

    # The helpers below return a formula with its height, the number of
    # connectives on its longest path.

    def formula(self) -> Formula:
        return self._or_expr()[0]

    def _checked(self, tok: _Token, height: int) -> int:
        if height + self.nesting > MAX_FORMULA_DEPTH:
            raise _error(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", tok)
        return height

    def _or_expr(self) -> tuple[Formula, int]:
        out, height = self._and_expr()
        while self.at("|"):
            tok = self.next()
            right, right_height = self._and_expr()
            out, height = four.Or(out, right), self._checked(tok, max(height, right_height) + 1)
        return out, height

    def _and_expr(self) -> tuple[Formula, int]:
        out, height = self._unary()
        while self.at("&"):
            tok = self.next()
            right, right_height = self._unary()
            out, height = four.And(out, right), self._checked(tok, max(height, right_height) + 1)
        return out, height

    def _unary(self) -> tuple[Formula, int]:
        tok = self.peek()
        kind, text = tok[:2]
        if kind == "(" or (kind == "ident" and text == "not"):
            self.next()
            self.nesting += 1
            self._checked(tok, 0)
            if kind == "(":
                out, height = self._or_expr()
                self.expect(")")
            else:
                operand, operand_height = self._unary()
                out, height = four.Not(operand), operand_height + 1
            self.nesting -= 1
            return out, height
        if kind == "hash":
            if text in _AGG_FUNCS:
                raise _error("aggregate atom not allowed in a formula body", tok)
            if text not in _HASH_CONSTS:
                raise _unknown_hash(tok, "constant")
            self.next()
            return _HASH_CONSTS[text], 0
        return four.Atom(self.atom_name()), 0


def parse(text: str) -> Program:
    parser = _Parser(_tokenize(text))
    return make_program(parser.program())


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def format_aggregate(agg: AggregateAtom) -> str:
    entries = []
    for entry in agg.term.entries:
        weights = ",".join(str(w) for w in entry.weights)
        entries.append(f"{weights}:{' & '.join(entry.condition)}")
    return f"#{agg.func.value}{{{'; '.join(entries)}}} {agg.comparator.value} {agg.bound!s}"


def _format_literal(lit: BodyLiteral) -> str:
    if isinstance(lit, PositiveAtom):
        return lit.name
    if isinstance(lit, NegatedAtom):
        return f"not {lit.name}"
    if isinstance(lit, PositiveAgg):
        return format_aggregate(lit.agg)
    return f"not {format_aggregate(lit.agg)}"


_CONST_TEXT = {Truth.T: "#true", Truth.F: "#false", Truth.U: "#u", Truth.C: "#c"}


def format_formula(f: Formula, _ctx: int = 1) -> str:
    if isinstance(f, four.Atom):
        return f.name
    if isinstance(f, four.Const):
        return _CONST_TEXT[f.value]
    if isinstance(f, four.Not):
        return f"not {format_formula(f.operand, 3)}"
    if isinstance(f, four.Or):
        text, prec = f"{format_formula(f.left, 1)} | {format_formula(f.right, 2)}", 1
    else:
        text, prec = f"{format_formula(f.left, 2)} & {format_formula(f.right, 3)}", 2
    return f"({text})" if prec < _ctx else text


def print_rule(rule: Rule) -> str:
    head = " | ".join(rule.head)
    if isinstance(rule.body, GeneralFormula):
        text = format_formula(rule.body.formula)
        f = rule.body.formula
        while isinstance(f, four.Not):
            f = f.operand
        # Bare, an atom under zero or more negations would not read back as a formula.
        return f"{head} :- ({text})." if isinstance(f, four.Atom) else f"{head} :- {text}."
    if not rule.body.items:
        return f"{head} :- ."
    return f"{head} :- {', '.join(_format_literal(lit) for lit in rule.body.items)}."


def print_program(p: Program) -> str:
    return "".join(print_rule(rule) + "\n" for rule in p.rules)


# ---------------------------------------------------------------------------
# Aggregate evaluation
# ---------------------------------------------------------------------------


def eval_multiset(x: AtomSet, term: SetTerm) -> tuple[tuple[int | Fraction, ...], ...]:
    """Weight lists of the entries whose condition holds in x, as a sorted
    multiset; duplicates contribute multiply."""
    picked = [entry.weights for entry in term.entries if set(entry.condition) <= x]
    return tuple(sorted(picked))


_COMPARE = {
    Comparator.LT: lt,
    Comparator.LE: le,
    Comparator.GE: ge,
    Comparator.GT: gt,
    Comparator.EQ: eq,
}


def _aggregate_truth(agg: AggregateAtom, firsts: list[int | Fraction]) -> tuple[Truth, bool]:
    """Two-valued truth of the positive aggregate atom whose picked entries
    have the first weights `firsts`, plus a definedness flag.

    Sum and count are total (empty multiset gives 0); max is undefined on the
    empty multiset, and an undefined value makes the atom false.
    """
    if agg.func is AggFunc.SUM:
        value = sum(firsts)
    elif agg.func is AggFunc.COUNT:
        value = len(firsts)
    else:
        if not firsts:
            return Truth.F, False
        value = max(firsts)
    return (Truth.T if _COMPARE[agg.comparator](value, agg.bound) else Truth.F), True


def eval_aggregate(x: AtomSet, agg: AggregateAtom) -> tuple[Truth, bool]:
    """`_aggregate_truth` with the entry conditions read at the set x; the
    set-level reading of `CompiledAggregate.holds`."""
    return _aggregate_truth(agg, [weights[0] for weights in eval_multiset(x, agg.term)])


def eval_body(u: AtomUniverse, x: AtomSet, rule: Rule) -> bool:
    """Two-valued truth of a rule body at x."""
    return CompiledRule(u, rule).holds(u, u.mask(x))


def body_formula(rule: Rule) -> Formula:
    """Rule body as a formula; aggregate literals have no formula reading."""
    if isinstance(rule.body, GeneralFormula):
        return rule.body.formula
    parts: list[Formula] = []
    for lit in rule.body.items:
        if isinstance(lit, PositiveAtom):
            parts.append(four.Atom(lit.name))
        elif isinstance(lit, NegatedAtom):
            parts.append(four.Not(four.Atom(lit.name)))
        else:
            raise ProgramClassError("aggregate atom has no formula reading")
    return four.conj(parts)


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProgramClassError(message)


def gl_transform(p: Program, i: ApproxPair) -> Program:
    """Replace each negated literal by its four-valued truth constant at i,
    yielding a positive program. Requires a disjunctively normal,
    aggregate-free program and a consistent pair. The result may hold U and
    C, so it is read as formulas (`body_formula`), not compiled."""
    cls = p.compile().classification
    _require(cls.shape != SHAPE_GENERAL, "GL transformation needs conjunctive rule bodies")
    _require(cls.aggregate_free, "GL transformation needs an aggregate-free program")
    if not i.is_consistent:
        raise InconsistentPairError("GL transformation needs a consistent pair")
    rules = []
    for rule in p.rules:
        assert isinstance(rule.body, Conj)
        if not any(isinstance(lit, NegatedAtom) for lit in rule.body.items):
            rules.append(rule)
            continue
        parts: list[Formula] = []
        for lit in rule.body.items:
            if isinstance(lit, PositiveAtom):
                parts.append(four.Atom(lit.name))
            else:
                assert isinstance(lit, NegatedAtom)
                value = four.eval_pair(p.universe, i, four.Not(four.Atom(lit.name)))
                parts.append(four.Const(value))
        rules.append(Rule(rule.head, GeneralFormula(four.conj(parts))))
    return Program(tuple(rules), p.universe)


def gz_reduct(p: Program, x: AtomSet) -> Program:
    """GZ reduct at x: drop rules with a false or undefined positive aggregate
    atom, and replace surviving aggregate atoms by the atoms of their x-true
    conditions. Negated atoms must be non-aggregate and are left untouched.

    The result is aggregate-free and keeps the original atom universe.
    """
    compiled = p.compile()
    cls = compiled.classification
    _require(cls.shape != SHAPE_GENERAL, "GZ reduct needs conjunctive rule bodies")
    _require(not cls.has_negated_aggregates, "GZ reduct does not allow negated aggregate atoms")
    xm = p.universe.mask(x)
    rules = []
    for rule, r in zip(p.rules, compiled.rules):
        assert isinstance(rule.body, Conj)
        aggs = iter(r.aggs)
        items: list[BodyLiteral] = []
        for lit in rule.body.items:
            if isinstance(lit, (PositiveAtom, NegatedAtom)):
                items.append(lit)
                continue
            assert isinstance(lit, PositiveAgg)
            agg = next(aggs)
            if not agg.holds(xm):
                break
            replacement: set[str] = set()
            for entry, (c, _) in zip(lit.agg.term.entries, agg.entries):
                if not c & ~xm:
                    replacement.update(entry.condition)
            items.extend(PositiveAtom(a) for a in sorted(replacement))
        else:
            rules.append(Rule(rule.head, Conj(tuple(items))))
    return Program(tuple(rules), p.universe)
