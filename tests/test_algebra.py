from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from svlie import (
    BasisVector,
    Element,
    HalfInt,
    L,
    M,
    ParityError,
    Y,
    basis_window,
    bracket,
    is_central,
)

from gen import elements

eb = Element.basis


def test_halfint_coercion_and_parity():
    assert HalfInt.of(3) == HalfInt(6)
    assert HalfInt.of(F(1, 2)) == HalfInt(1)
    assert HalfInt.of(F(-3, 2)).twice == -3
    assert HalfInt(4).is_integer and not HalfInt(3).is_integer
    with pytest.raises(ValueError):
        HalfInt.of(F(1, 3))


def test_halfint_arithmetic_and_order():
    a, b = HalfInt.of(F(1, 2)), HalfInt.of(2)
    assert (a + b).twice == 5
    assert (a - b) == HalfInt(-3)
    assert -a == HalfInt(-1)
    assert abs(HalfInt(-7)) == HalfInt(7)
    assert a < b and not b < a
    assert str(b) == "2" and str(a) == "1/2" and str(HalfInt(-3)) == "-3/2"
    assert b.as_fraction == F(2) and a.as_fraction == F(1, 2)


def test_basis_vector_parity_enforced():
    with pytest.raises(ParityError):
        Y(1)
    with pytest.raises(ParityError):
        BasisVector("L", HalfInt(3))
    with pytest.raises(ParityError):
        BasisVector("M", HalfInt(-5))
    assert Y(F(1, 2)).index.twice == 1


def test_basis_vector_order_l_y_m():
    assert L(5) < Y(F(1, 2)) < M(-5)
    assert L(-2) < L(1)
    assert Y(F(-3, 2)) < Y(F(1, 2))


def test_basis_window_contents():
    w = basis_window(2)
    assert len(w) == 14
    assert w == sorted(w)
    assert Y(F(3, 2)) in w and Y(F(5, 2)) not in w
    half = basis_window(F(1, 2))
    assert set(half) == {L(0), M(0), Y(F(1, 2)), Y(F(-1, 2))}


GOLDEN_BRACKETS = [
    (L(1), L(-1), Element([(L(0), -2)])),
    (L(2), L(-1), Element([(L(1), -3)])),
    (L(1), L(-2), Element([(L(-1), -3)])),
    (L(2), L(-2), Element([(L(0), -4)])),
    (L(2), Y(F(-1, 2)), Element([(Y(F(3, 2)), F(-3, 2))])),
    (L(-2), Y(F(3, 2)), Element([(Y(F(-1, 2)), F(5, 2))])),
    (Y(F(-1, 2)), Y(F(1, 2)), Element([(M(0), 1)])),
    (M(3), M(-3), Element.zero()),
]


@pytest.mark.parametrize("a,b,want", GOLDEN_BRACKETS)
def test_bracket_golden(a, b, want):
    assert bracket(eb(a), eb(b)) == want


def test_bracket_antisymmetry_window_8():
    window = basis_window(8)
    els = {bv: eb(bv) for bv in window}
    for a in window:
        for b in window:
            assert bracket(els[a], els[b]) == -1 * bracket(els[b], els[a])


def test_bracket_jacobi_window_3():
    window = basis_window(3)
    els = {bv: eb(bv) for bv in window}
    for x in window:
        for y in window:
            for z in window:
                total = bracket(els[x], bracket(els[y], els[z])) \
                    + bracket(els[y], bracket(els[z], els[x])) \
                    + bracket(els[z], bracket(els[x], els[y]))
                assert total.is_zero


def test_bracket_grading():
    window = basis_window(4)
    for a in window:
        for b in window:
            res = bracket(eb(a), eb(b))
            if not res.is_zero:
                assert res.homogeneous_degree() == a.index + b.index


def test_center_annihilates_window_8():
    m0 = eb(M(0))
    for bv in basis_window(8):
        assert bracket(eb(bv), m0).is_zero


@settings(max_examples=60)
@given(elements(), elements(), elements())
def test_bracket_bilinear(x, y, z):
    assert bracket(x + y, z) == bracket(x, z) + bracket(y, z)
    assert bracket(x, y + z) == bracket(x, y) + bracket(x, z)
    assert bracket(3 * x, y) == 3 * bracket(x, y)


def test_degree_decompose_examples():
    both = Element([(L(2), 1), (M(2), 1)])
    assert both.graded_components() == {HalfInt.of(2): both}
    mixed = Element([(L(1), 1), (Y(F(1, 2)), 1)])
    assert mixed.graded_components() == {
        HalfInt.of(1): eb(L(1)),
        HalfInt.of(F(1, 2)): eb(Y(F(1, 2))),
    }
    assert Element.zero().graded_components() == {}


@settings(max_examples=40)
@given(elements(bound=4, max_terms=6))
def test_degree_decompose_reassembles(x):
    parts = x.graded_components()
    total = Element.zero()
    for d, part in parts.items():
        assert not part.is_zero
        assert part.homogeneous_degree() == d
        total = total + part
    assert total == x


def test_is_central_examples():
    assert is_central(eb(M(0)))
    assert is_central(Element.zero())
    assert is_central(F(-7, 2) * eb(M(0)))
    assert not is_central(eb(M(1)))
    assert not is_central(eb(L(0)))


def test_element_canonicalization():
    x = Element([(L(1), 1), (L(1), -1), (M(2), F(1, 2))])
    assert x == Element([(M(2), F(1, 2))])
    assert (x - x).is_zero
    assert str(Element.zero()) == "0"


def test_element_rejects_float_scalars():
    with pytest.raises(TypeError):
        Element([(L(0), 0.5)])
    with pytest.raises(TypeError):
        0.5 * eb(L(0))
