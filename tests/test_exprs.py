import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from svlie import (
    DerivationTable,
    Element,
    HalfInt,
    L,
    M,
    ParseError,
    Tensor2,
    Y,
    bracket,
    format,
    parse_derivation_table,
    parse_element,
    parse_source,
    parse_tensor2,
    parse_tensor3,
    wedge,
)

from svlie.exprs import SourceExpr, Token, _Parser, _tokenize
from svlie.tensors import _CLASS_OF_RANK

from gen import elements, tensor2s, tensor3s

HALF = F(1, 2)


def test_parse_examples():
    assert parse_tensor2("L[2] (x) M[-1] - M[-1] (x) L[2]") == wedge(L(2), M(-1))
    assert parse_element("3/2 * Y[1/2] + L[0]") == \
        Element([(Y(HALF), F(3, 2)), (L(0), 1)])
    with pytest.raises(ParseError) as err:
        parse_element("Y[1]")
    assert "parity" in str(err.value) and "column 3" in str(err.value)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_element("3/0 * L[2]")
    assert "zero denominator" in str(err.value)
    assert err.value.line == 1 and err.value.col == 3

    with pytest.raises(ParseError) as err:
        parse_tensor2("L[2] (x)")
    assert err.value.col == 9

    with pytest.raises(ParseError) as err:
        parse_element("L[2] $ L[3]")
    assert "unexpected character" in str(err.value)

    with pytest.raises(ParseError):
        parse_element("2 L[0]")  # missing the mandatory '*'

    with pytest.raises(ParseError):
        parse_tensor2("L[0] (x) L[1] (x) L[2]")  # too many factors for rank 2

    # parse_source stops at the separator of a fourth factor
    with pytest.raises(ParseError) as err:
        parse_source("L[1] (x) L[2] (x) L[3] (x) L[4]")
    assert (err.value.message, err.value.col) == ("too many tensor factors (at most 3)", 24)

    # a superscript digit is no decimal digit; a non-ASCII decimal digit is
    for parse in (parse_element, parse_source):
        with pytest.raises(ParseError) as err:
            parse("L[²]")
        assert (err.value.line, err.value.col) == (1, 3)
    assert parse_element("L[٣]") == parse_element("L[3]")

    with pytest.raises(ParseError) as err:
        parse_tensor2("L[1] (x)\n  M[0] $")
    assert (err.value.line, err.value.col) == (2, 8)


def test_format_goldens():
    assert format(bracket(Element.basis(L(1)), Element.basis(L(-1)))) == "-2 * L[0]"
    assert format(Tensor2.zero()) == "0"
    assert format(Element.zero()) == "0"
    assert format(Element([(L(0), 1), (Y(HALF), F(3, 2))])) == "L[0] + 3/2 * Y[1/2]"
    assert format(Element([(L(0), -1)])) == "-1 * L[0]"
    assert format(Element([(L(0), 1), (M(2), -1)])) == "L[0] - M[2]"


def test_whitespace_and_alias():
    a = parse_tensor2("L[ 2 ]   (x)M[-1]\n - M[-1]\t(x) L[2]")
    assert a == wedge(L(2), M(-1))
    b = parse_tensor2("L[2] ⊗ M[-1] - M[-1] ⊗ L[2]")
    assert b == a


def test_zero_literal_all_ranks():
    assert parse_element("0") == Element.zero()
    assert parse_tensor2(" 0 ") == Tensor2.zero()
    assert parse_tensor3("0").is_zero


@settings(max_examples=80)
@given(elements(bound=4))
def test_round_trip_elements(x):
    assert parse_element(format(x)) == x


@settings(max_examples=80)
@given(tensor2s(bound=4))
def test_round_trip_tensor2(t):
    assert parse_tensor2(format(t)) == t


@settings(max_examples=80)
@given(tensor3s(bound=4))
def test_round_trip_tensor3(u):
    assert parse_tensor3(format(u)) == u


def test_parse_source_rank_detection():
    assert parse_source("L[0]").rank == 1
    assert parse_source("L[0] (x) M[1]").rank == 2
    assert parse_source("L[2] (x) Y[-1/2] (x) M[0]").rank == 3
    zero = parse_source("0")
    assert zero.rank == 2 and zero.value.is_zero
    assert parse_source("-2 * L[0] - L[1]").rank == 1


def test_parse_derivation_table():
    text = """
    # a tiny inner table
    L[0] -> 0
    M[0] -> 0
    L[1] -> M[0] (x) M[1] - M[1] (x) M[0]
    L[-1] -> -1 * M[0] (x) M[-1] + M[-1] (x) M[0]
    M[1] -> 0
    M[-1] -> 0
    Y[1/2] -> 0
    Y[-1/2] -> 0
    L[2]  -> 2 * M[0] (x) M[2] - 2 * M[2] (x) M[0]   # beyond the window
    """
    table = parse_derivation_table(text)
    assert table.window == HalfInt.of(1)
    assert table.image(L(1)) == wedge(M(0), M(1))
    assert table.image(L(2)) == 2 * wedge(M(0), M(2))


def test_parse_derivation_table_errors():
    with pytest.raises(ParseError) as err:
        parse_derivation_table("L[0] = 0")
    assert "->" in str(err.value) and (err.value.line, err.value.col) == (1, 1)

    with pytest.raises(ParseError) as err:
        parse_derivation_table("L[0] -> 0\n\t M[0] = 0")
    assert "->" in str(err.value) and (err.value.line, err.value.col) == (2, 3)

    with pytest.raises(ParseError) as err:
        parse_derivation_table("L[0] -> 0\nL[0] -> 0\nM[0] -> 0")
    assert "duplicate" in str(err.value) and (err.value.line, err.value.col) == (2, 1)

    # errors point at the entry's first non-blank character
    with pytest.raises(ParseError) as err:
        parse_derivation_table("L[0] -> 0\nM[0] -> 0\n  L[0] -> 0")
    assert str(err.value) == "line 3, column 3: duplicate entry for L[0]"

    with pytest.raises(ParseError) as err:
        parse_derivation_table("L[0] -> 0\nM[0] -> Y[2] (x) M[0]")
    assert err.value.line == 2


# --- the character-loop lexer and token-scan parse_source that the regex
# lexer and the parser-ranked parse_source replaced, kept as references

def reference_tokenize(text, first_line=1, first_col=1):
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
        if ch == "⊗":
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


class ReferenceParser(_Parser):
    """The fixed-rank value and term rules as they were before the parser
    learned to read the rank."""

    def parse_value(self, rank):
        cls = _CLASS_OF_RANK[rank]
        if self.tok.kind == "NUM" and self.tok.text == "0" \
                and self.tokens[self.pos + 1].kind == "END":
            self.advance()
            self.expect("END", "end of input")
            return cls.zero()
        items = [self.parse_term(rank, F(1))]
        while self.tok.kind in ("PLUS", "MINUS"):
            sign = F(1) if self.advance().kind == "PLUS" else F(-1)
            items.append(self.parse_term(rank, sign))
        self.expect("END", "'+', '-' or end of input")
        return cls(items)

    def parse_term(self, rank, sign):
        coeff = sign
        if self.tok.kind in ("NUM", "MINUS"):
            coeff *= self.parse_rational()
            self.expect("STAR", "'*' between scalar and generator")
        gens = [self.parse_gen()]
        for _ in range(rank - 1):
            self.expect("OTIMES", "'(x)'")
            gens.append(self.parse_gen())
        return (gens[0] if rank == 1 else tuple(gens)), coeff


def reference_parse_source(text, tokens=None):
    tokens = reference_tokenize(text) if tokens is None else tokens
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
    return SourceExpr(text, ReferenceParser(tokens).parse_value(rank), rank)


# well-formed pieces, and junk inserted at random offsets: a superscript
# digit that str.isdigit accepts and int refuses, a non-ASCII decimal digit
# that both accept, '$', a lone '(', a zero denominator, a parity error
_GENS = ["L[1]", "M[-2]", "Y[1/2]", "Y[-3/2]", "L[0]", "M[٣]"]
_JUNK = ["[", "]", "(x)", "⊗", "+", "-", "*", "/", "0", "12", " ", "\n", "\t\r",
         "²", "٣", "$", "(", "-1/2 * ", "L[2] (x) ", "Y[1]", "/0"]


def _fuzz_string(rng):
    rank = rng.choice([1, 1, 2, 2, 3, 4])
    text = ""
    for i in range(rng.randint(1, 3)):
        sign = rng.choice([" + ", " - ", "\n- "]) if i else ""
        coeff = rng.choice(["", "", "2 * ", "-1/2 * ", "0 * "])
        text += sign + coeff + rng.choice([" (x) ", "⊗"]).join(
            rng.choice(_GENS) for _ in range(rank))
    for _ in range(rng.choice([0, 0, 1, 2])):
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(_JUNK) + text[at + rng.choice([0, 0, 1]):]
    return text if rng.random() < 0.95 else rng.choice(["0", " 0\n", ""])


def _outcome(parse, text):
    try:
        return "value", parse(text)
    except ParseError as exc:
        return "error", exc.message, exc.line, exc.col


def test_regex_lexer_and_parser_rank_match_references():
    rng = random.Random(15)
    for _ in range(800):
        text = _fuzz_string(rng)
        if "²" in text:
            # the old lexer let '²' through to a bare int() ValueError
            for parse in (parse_element, parse_tensor2, parse_tensor3, parse_source):
                assert _outcome(parse, text)[0] == "error", text
            continue
        ref_lex = _outcome(reference_tokenize, text)
        assert _outcome(_tokenize, text) == ref_lex, text
        for rank, parse in ((1, parse_element), (2, parse_tensor2), (3, parse_tensor3)):
            ref = ref_lex if ref_lex[0] == "error" else _outcome(
                lambda _: ReferenceParser(ref_lex[1]).parse_value(rank), text)
            assert _outcome(parse, text) == ref, (rank, text)
        ref = ref_lex if ref_lex[0] == "error" else _outcome(
            lambda s: reference_parse_source(s, ref_lex[1]), text)
        new = _outcome(parse_source, text)
        if ref[0] == "value":
            assert new == ref, text
        elif ref[1] != "too many tensor factors (at most 3)":
            assert new[0] == "error" and new[2:] == ref[2:], (text, ref, new)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no int-string limit")
def test_numbers_past_the_int_string_limit():
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    for text, col in ((digits + " * L[1]", 1), (f"L[{digits}]", 3)):
        with pytest.raises(ParseError) as err:
            parse_element(text)
        assert (err.value.line, err.value.col) == (1, col)
        assert "digits" in err.value.message
