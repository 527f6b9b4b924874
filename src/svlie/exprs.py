"""Text grammar for elements and tensors, and the matching pretty-printer.

    element  := "0" | term (("+"|"-") term)*
    term     := [rational "*"] gen
    gen      := ("L"|"M") "[" index "]" | "Y" "[" index "]"
    tensor2  := "0" | t2term (("+"|"-") t2term)* ; factors joined by "(x)"
    tensor3  := same with two "(x)"
    rational := ["-"] digits ["/" digits]

The tensor separator is the ASCII token "(x)"; the Unicode tensor sign is
accepted as an alias on input.  Indices are integers for L and M and
half-odd rationals written over 2 for Y ("Y[-3/2]"); signs sit inside the
brackets.  The "*" between a scalar and its generator is mandatory.
Whitespace is free.  Parsing and formatting are mutually inverse on
canonical values, and parse errors carry line and column numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import BasisVector, Element, HalfInt, ParityError
from .bialgebra import DerivationTable
from .tensors import _CLASS_OF_RANK, Tensor2, Tensor3


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str, first_line: int = 1, first_col: int = 1) -> list[Token]:
    toks = []
    line, col = first_line, first_col
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        start = (line, col)
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("NUM", text[i:j], *start))
            col += j - i
            i = j
            continue
        if ch == "(":
            if text[i:i + 3] == "(x)":
                toks.append(Token("OTIMES", "(x)", *start))
                col += 3
                i += 3
                continue
            raise ParseError("expected the tensor separator '(x)'", line, col)
        if ch == "⊗":  # tensor sign alias
            toks.append(Token("OTIMES", ch, *start))
            col += 1
            i += 1
            continue
        simple = {"[": "LBRACK", "]": "RBRACK", "+": "PLUS", "-": "MINUS",
                  "*": "STAR", "/": "SLASH"}
        if ch in simple:
            toks.append(Token(simple[ch], ch, *start))
            col += 1
            i += 1
            continue
        if ch in "LMY":
            toks.append(Token("NAME", ch, *start))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("END", "", line, col))
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

    def parse_value(self, rank: int):
        cls = _CLASS_OF_RANK[rank]
        if self.tok.kind == "NUM" and self.tok.text == "0" \
                and self.tokens[self.pos + 1].kind == "END":
            self.advance()
            self.expect("END", "end of input")
            return cls.zero()
        items = [self.parse_term(rank, Fraction(1))]
        while self.tok.kind in ("PLUS", "MINUS"):
            sign = Fraction(1) if self.advance().kind == "PLUS" else Fraction(-1)
            items.append(self.parse_term(rank, sign))
        self.expect("END", "'+', '-' or end of input")
        return cls(items)

    def parse_term(self, rank: int, sign: Fraction):
        coeff = sign
        if self.tok.kind in ("NUM", "MINUS"):
            coeff *= self.parse_rational()
            self.expect("STAR", "'*' between scalar and generator")
        gens = [self.parse_gen()]
        for _ in range(rank - 1):
            self.expect("OTIMES", "'(x)'")
            gens.append(self.parse_gen())
        key = gens[0] if rank == 1 else tuple(gens)
        return key, coeff

    def parse_rational(self) -> Fraction:
        sign = 1
        if self.tok.kind == "MINUS":
            self.advance()
            sign = -1
        num = int(self.expect("NUM", "a number").text)
        if self.tok.kind == "SLASH":
            self.advance()
            dtok = self.expect("NUM", "a denominator")
            den = int(dtok.text)
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
    """Parse text whose rank (element, rank-2 or rank-3 tensor) is detected
    from the tensor separators of its first term.  A bare "0" parses as the
    zero rank-2 tensor."""
    tokens = _tokenize(text)
    rank = 1
    seen_gen = False
    depth = 0
    for t in tokens:
        if t.kind == "LBRACK":
            depth += 1
        elif t.kind == "RBRACK":
            depth -= 1
            seen_gen = True
        elif t.kind == "OTIMES":
            rank += 1
        elif t.kind in ("PLUS", "MINUS") and seen_gen and depth == 0:
            break
    if rank > 3:
        raise ParseError("too many tensor factors (at most 3)", 1, 1)
    if not seen_gen:
        rank = 2
    value = _Parser(tokens).parse_value(rank)
    return SourceExpr(text, value, rank)


def format(value) -> str:
    """Canonical, re-parseable text form; the zero value prints as "0"."""
    return str(value)


def parse_derivation_table(text: str) -> DerivationTable:
    """Parse the table file format: one `<basis> -> <tensor2>` entry per
    line, '#' starting a comment, blank lines ignored.  The window is the
    largest index bound fully covered by the entries."""
    images: dict[BasisVector, Tensor2] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        left, sep, right = body.partition("->")
        if not sep:
            raise ParseError("expected '<basis> -> <tensor>'", lineno, 1)
        ltoks = _tokenize(left, first_line=lineno)
        parser = _Parser(ltoks)
        bv = parser.parse_gen()
        parser.expect("END", "end of the basis vector")
        rtoks = _tokenize(right, first_line=lineno, first_col=len(left) + 3)
        tensor = _Parser(rtoks).parse_value(2)
        if bv in images:
            raise ParseError(f"duplicate entry for {bv}", lineno, 1)
        images[bv] = tensor
    return DerivationTable.from_entries(images)
