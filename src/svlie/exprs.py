"""Text grammar for elements and tensors, and the matching pretty-printer.

    element  := "0" | term (("+"|"-") term)*
    term     := [rational "*"] gen
    gen      := ("L"|"M") "[" index "]" | "Y" "[" index "]"
    tensor2  := "0" | t2term (("+"|"-") t2term)* ; factors joined by "(x)"
    tensor3  := same with two "(x)"
    rational := ["-"] digits ["/" digits]

Tokens: NUM, a run of decimal digits (the Unicode digits that `int` reads,
not superscripts); OTIMES, the ASCII "(x)" or the tensor sign; NAME, one of
L, M and Y; and the single characters [ ] + - * /.  Spaces, tabs, carriage
returns and newlines are free between tokens.  Indices are integers for L
and M and half-odd rationals written over 2 for Y ("Y[-3/2]"); signs sit
inside the brackets.  The "*" between a scalar and its generator is
mandatory.  Parsing and formatting are mutually inverse on canonical values.
Every malformed input, a number past the int-string limit included, raises
`ParseError` with its line and column, and `format` holds its output to the
same limit.  The rational rule also reads every number option of `sv`, one
whole option value at a time (`_read_rational`).  `parse_source` takes its
rank from the factors of the first term.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .algebra import BasisVector, Element, HalfInt, ParityError
from .bialgebra import DerivationTable
from .tensors import _CLASS_OF_RANK, Tensor2, Tensor3


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_TOKEN = re.compile(r"(?P<NUM>\d+)|(?P<OTIMES>\(x\)|⊗)|(?P<LBRACK>\[)|(?P<RBRACK>\])"
                    r"|(?P<PLUS>\+)|(?P<MINUS>-)|(?P<STAR>\*)|(?P<SLASH>/)|(?P<NAME>[LMY])"
                    r"|(?P<SPACE>[ \t\r]+)|(?P<NEWLINE>\n)|(?P<BAD>.)", re.DOTALL)


def _tokenize(text: str, first_line: int = 1, first_col: int = 1) -> list[Token]:
    toks = []
    line, base = first_line, -first_col  # a token's column is its offset minus base
    for m in _TOKEN.finditer(text):
        kind, pos = m.lastgroup, m.start()
        if kind == "NEWLINE":
            line, base = line + 1, pos
        elif kind == "BAD":
            raise ParseError("expected the tensor separator '(x)'" if m.group() == "("
                             else f"unexpected character {m.group()!r}", line, pos - base)
        elif kind != "SPACE":
            toks.append(Token(kind, m.group(), line, pos - base))
    toks.append(Token("END", "", line, len(text) - base))
    return toks


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        t = self.tok
        self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> Token:
        if self.tok.kind != kind:
            raise ParseError(f"expected {what}, found {self.tok.text or 'end of input'!r}",
                             self.tok.line, self.tok.col)
        return self.advance()

    def parse_value(self, rank: int | None):
        # rank None: the first term fixes the rank, and a bare "0" is rank 2
        if self.tok.kind == "NUM" and self.tok.text == "0" \
                and self.tokens[self.pos + 1].kind == "END":
            self.rank = rank or 2
            return _CLASS_OF_RANK[self.rank].zero()
        items = [self.parse_term(rank, Fraction(1))]
        self.rank = rank = len(items[0][0])
        while self.tok.kind in ("PLUS", "MINUS"):
            sign = Fraction(1) if self.advance().kind == "PLUS" else Fraction(-1)
            items.append(self.parse_term(rank, sign))
        self.expect("END", "'+', '-' or end of input")
        return _CLASS_OF_RANK[rank]([(gens[0] if rank == 1 else gens, c) for gens, c in items])

    def parse_term(self, rank: int | None, sign: Fraction) -> tuple[tuple, Fraction]:
        # rank None reads factors while a separator follows, at most three
        coeff = sign
        if self.tok.kind in ("NUM", "MINUS"):
            coeff *= self.parse_rational()
            self.expect("STAR", "'*' between scalar and generator")
        gens = [self.parse_gen()]
        while len(gens) != rank and (rank or self.tok.kind == "OTIMES"):
            if len(gens) == 3:
                raise ParseError("too many tensor factors (at most 3)",
                                 self.tok.line, self.tok.col)
            self.expect("OTIMES", "'(x)'")
            gens.append(self.parse_gen())
        return tuple(gens), coeff

    def parse_number(self, what: str) -> tuple[Token, int]:
        tok = self.expect("NUM", what)
        try:
            return tok, int(tok.text)
        except ValueError:  # past the int-string limit
            raise ParseError(f"number longer than {sys.get_int_max_str_digits()} digits",
                             tok.line, tok.col) from None

    def parse_rational(self) -> Fraction:
        sign = 1
        if self.tok.kind == "MINUS":
            self.advance()
            sign = -1
        num = self.parse_number("a number")[1]
        if self.tok.kind == "SLASH":
            self.advance()
            dtok, den = self.parse_number("a denominator")
            if den == 0:
                raise ParseError("malformed rational: zero denominator",
                                 dtok.line, dtok.col)
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def parse_gen(self) -> BasisVector:
        name = self.expect("NAME", "a generator L, M or Y")
        self.expect("LBRACK", "'['")
        itok = self.tok
        value = self.parse_rational()
        self.expect("RBRACK", "']'")
        try:
            index = HalfInt.of(value)
        except ValueError:
            raise ParseError(f"index {value} is not an integer or half-integer",
                             itok.line, itok.col) from None
        try:
            return BasisVector(name.text, index)
        except ParityError as exc:
            raise ParseError(f"parity error: {exc}", itok.line, itok.col) from None


def _read_rational(text: str, first_col: int = 1) -> Fraction:
    """The whole of `text` as one rational, its first character at column
    `first_col`: how `sv` reads a number option."""
    parser = _Parser(_tokenize(text, first_col=first_col))
    value = parser.parse_rational()
    parser.expect("END", "end of the number")
    return value


def parse_element(text: str) -> Element:
    return _Parser(_tokenize(text)).parse_value(1)


def parse_tensor2(text: str) -> Tensor2:
    return _Parser(_tokenize(text)).parse_value(2)


def parse_tensor3(text: str) -> Tensor3:
    return _Parser(_tokenize(text)).parse_value(3)


@dataclass(frozen=True)
class SourceExpr:
    """A parsed expression together with its raw text and detected rank."""

    raw: str
    value: object
    rank: int


def parse_source(text: str) -> SourceExpr:
    """Parse an element, rank-2 or rank-3 tensor, whose rank the first term
    fixes.  A bare "0" parses as the zero rank-2 tensor."""
    parser = _Parser(_tokenize(text))
    value = parser.parse_value(None)
    return SourceExpr(text, value, parser.rank)


def format(value) -> str:
    """Canonical, re-parseable text form; the zero value prints as "0".
    A value with a number past the int-string limit, which no input can
    hold, raises ValueError."""
    try:
        return str(value)
    except ValueError:
        raise ValueError(f"the result has a number longer than "
                         f"{sys.get_int_max_str_digits()} digits") from None


def parse_derivation_table(text: str) -> DerivationTable:
    """Parse the table file format: one `<basis> -> <tensor2>` entry per
    line, '#' starting a comment, blank lines ignored.  The window is the
    largest index bound fully covered by the entries."""
    images: dict[BasisVector, Tensor2] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        col = len(body) - len(body.lstrip()) + 1  # the entry's first character
        left, sep, right = body.partition("->")
        if not sep:
            raise ParseError("expected '<basis> -> <tensor>'", lineno, col)
        ltoks = _tokenize(left, first_line=lineno)
        parser = _Parser(ltoks)
        bv = parser.parse_gen()
        parser.expect("END", "end of the basis vector")
        rtoks = _tokenize(right, first_line=lineno, first_col=len(left) + 3)
        tensor = _Parser(rtoks).parse_value(2)
        if bv in images:
            raise ParseError(f"duplicate entry for {bv}", lineno, col)
        images[bv] = tensor
    return DerivationTable(images)
