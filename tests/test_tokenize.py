"""The regex tokenizer against the character-loop tokenizer it replaced, kept
below verbatim as the reference: the same token kinds, texts, lines and
columns, and the same ParseError message and position."""

from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aftlab.program import ParseError, _tokenize, parse

# ---------------------------------------------------------------------------
# The reference: the character-loop tokenizer, verbatim.
# ---------------------------------------------------------------------------

_PUNCT = (":-", "<=", ">=", ".", "|", ",", ";", ":", "&", "(", ")", "{", "}", "<", ">", "=")


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "number" | "hash" | punctuation literal | "eof"
    text: str
    line: int
    col: int


def _reference_tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, pos = 1, 1, 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            line += 1
            col = 1
            pos += 1
            continue
        if ch in " \t\r":
            pos += 1
            col += 1
            continue
        if ch == "%":
            while pos < n and text[pos] != "\n":
                pos += 1
            continue
        start_line, start_col = line, col
        if ch.isalpha() or ch == "_":
            end = pos
            while end < n and (text[end].isalnum() or text[end] == "_"):
                end += 1
            tokens.append(_Token("ident", text[pos:end], start_line, start_col))
            col += end - pos
            pos = end
            continue
        if ch.isdigit() or (ch == "-" and pos + 1 < n and text[pos + 1].isdigit()):
            end = pos + 1
            while end < n and (text[end].isdigit() or text[end] in "./" and end + 1 < n and text[end + 1].isdigit()):
                end += 1
            tokens.append(_Token("number", text[pos:end], start_line, start_col))
            col += end - pos
            pos = end
            continue
        if ch == "#":
            end = pos + 1
            while end < n and text[end].isalpha():
                end += 1
            tokens.append(_Token("hash", text[pos:end], start_line, start_col))
            col += end - pos
            pos = end
            continue
        for punct in _PUNCT:
            if text.startswith(punct, pos):
                tokens.append(_Token(punct, punct, start_line, start_col))
                pos += len(punct)
                col += len(punct)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------


def reference_outcome(text: str):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in _reference_tokenize(text)]
    except ParseError as exc:
        return str(exc), exc.line, exc.col


def outcome(text: str):
    try:
        return _tokenize(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.col


# Pieces of programs, with the characters where `str.isalpha`, `str.isdigit`,
# `str.isdecimal` and the regex `\w` and `\d` part ways: a letter (ä), a
# decimal digit outside ASCII (٣), digits that are not decimal (², ①), word
# characters that are neither letters nor digits (½, Ⅻ), a letter with a
# numeric value (一) and a combining mark (U+0301).
PIECES = (
    ":-", ".", "|", ",", ";", ":", "&", "(", ")", "{", "}", "<", "<=", ">", ">=", "=", "-", "/",
    "not", "p", "q", "_x", "a1", "ä", "b²", "一", "x́", "#", "#sum", "#count", "#max", "#true", "#u",
    "#ä", "#_", "1", "-1", "1/2", "0.5", "1.", "1/", "1/0", "²", "-²", "1²", "2.³", "٣", "①", "½", "Ⅻ",
    "$", "'", " ", "\t", "\r", "\n", "%", "% c\n",
)
token_soup = st.lists(st.sampled_from(PIECES), max_size=16).map("".join)


@settings(max_examples=600, deadline=None)
@given(st.one_of(token_soup, st.text(max_size=24), st.text(st.sampled_from("".join(PIECES)), max_size=24)))
def test_tokens_and_errors_match_the_character_loop(text):
    assert outcome(text) == reference_outcome(text)


@pytest.mark.parametrize(
    "text",
    ["ä :- b².", "p :- #sum{٣:q} >= 1.", "p :- #sum{²:q} >= 1.", "p :- q % c", "p :- ½.", "-² 1/² x1²y", ""],
)
def test_edge_cases_match_the_character_loop(text):
    assert outcome(text) == reference_outcome(text)


def test_unicode_identifiers_and_decimal_digits_parse():
    p = parse("ä :- b².\nq :- #sum{٣:ä} >= 1.")
    assert p.universe.atoms == ("b²", "q", "ä")
    assert p.rules[1].body.items[0].agg.term.entries[0].weights == (Fraction(3),)


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("p :- #sum{²:q} >= 1.", "bad number '²'", 1, 11),
        # The end of input after a trailing comment sits at its '%'.
        ("p :- q % c", "missing '.' at end of rule", 1, 8),
        ("p :- q.\nr :- ½.", "unexpected character '½'", 2, 6),
    ],
)
def test_parse_errors_name_the_token_and_its_position(text, message, line, col):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (str(info.value), info.value.line, info.value.col) == (f"line {line}, column {col}: {message}", line, col)
