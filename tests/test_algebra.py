import dataclasses
import os
import pickle
import subprocess
import sys
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
    Tensor2,
    Y,
    basis_window,
    bracket,
    bracket_basis,
    is_central,
)
from svlie.algebra import KIND_RANK

from gen import elements

eb = Element.basis


def test_halfint_coercion_and_parity():
    assert HalfInt.of(3) == HalfInt(6)
    assert HalfInt.of(F(1, 2)) == HalfInt(1)
    assert HalfInt.of(F(-3, 2)).twice == -3
    assert HalfInt(4).is_integer and not HalfInt(3).is_integer
    with pytest.raises(ValueError):
        HalfInt.of(F(1, 3))
    with pytest.raises(TypeError):
        HalfInt.of("x")


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
    for build, message in [(lambda: Y(1), "Y index must be half-odd, got 1"),
                           (lambda: BasisVector("L", HalfInt(1)),
                            "L index must be an integer, got 1/2"),
                           (lambda: BasisVector("M", HalfInt(-5)),
                            "M index must be an integer, got -5/2")]:
        with pytest.raises(ParityError) as exc:
            build()
        assert str(exc.value) == message
    assert Y(F(1, 2)).index.twice == 1
    with pytest.raises(ValueError, match="unknown generator kind 'Q'"):
        BasisVector("Q", HalfInt(0))


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
    # the operators every linear type shares
    assert -x == x * -1 == Element([(M(2), F(-1, 2))])
    assert hash(x) == hash(Element([(M(2), F(1, 2))]))
    assert repr(x) == "Element(1/2 * M[2])"
    t = Tensor2([((L(1), M(0)), 1)])
    assert x != t  # an element and a tensor are never equal, and do not add
    with pytest.raises(TypeError):
        x + t
    with pytest.raises(TypeError):
        x - t


def test_element_rejects_float_scalars():
    with pytest.raises(TypeError):
        Element([(L(0), 0.5)])
    with pytest.raises(TypeError):
        0.5 * eb(L(0))
    with pytest.raises(TypeError):
        Element([("x", 1)])


def reference_bracket_basis(a, b):
    """The structure constants as one branch per kind pair."""
    ta, tb = a.index.twice, b.index.twice
    if a.kind == "L":
        if b.kind == "L":
            c, kind = F(tb - ta, 2), "L"
        elif b.kind == "M":
            c, kind = F(tb, 2), "M"
        else:
            c, kind = F(2 * tb - ta, 4), "Y"
        if not c:
            return None
        return c, BasisVector(kind, HalfInt(ta + tb))
    if b.kind == "L":
        hit = reference_bracket_basis(b, a)
        return None if hit is None else (-hit[0], hit[1])
    if a.kind == "Y" and b.kind == "Y":
        c = F(tb - ta, 2)
        if not c:
            return None
        return c, BasisVector("M", HalfInt(ta + tb))
    return None


def reference_basis_window(bound):
    """The window built one kind at a time, with a parity branch per kind."""
    t = HalfInt.of(bound).twice
    if t < 0:
        raise ValueError("window bound must be nonnegative")
    out = []
    for kind in ("L", "Y", "M"):
        if kind == "Y":
            twices = [k for k in range(-t, t + 1) if k % 2]
        else:
            twices = [2 * n for n in range(-(t // 2), t // 2 + 1)]
        out.extend(BasisVector(kind, HalfInt(k)) for k in twices)
    return out


def test_bracket_basis_matches_reference():
    window = basis_window(4)
    for a in window:
        for b in window:
            got = bracket_basis(a, b)
            assert got == reference_bracket_basis(a, b), (a, b)
            assert got is None or type(got[0]) is F


def test_basis_window_matches_reference():
    for twice in range(13):
        bound = F(twice, 2)
        assert basis_window(bound) == reference_basis_window(bound), bound


# --- the identity BasisVector had before one stored key: equality on
# (kind, index), order on (KIND_RANK[kind], index.twice)

def reference_eq_key(bv):
    return (bv.kind, bv.index)


def reference_order_key(bv):
    return (KIND_RANK[bv.kind], bv.index.twice)


def test_basis_vector_identity_matches_reference():
    window = basis_window(4)
    hits = [bracket_basis(a, b) for a in window for b in window]
    vectors = window + [hit[1] for hit in hits if hit is not None]
    for a in vectors:
        for b in vectors:
            ka, kb = reference_order_key(a), reference_order_key(b)
            assert (a == b) == (reference_eq_key(a) == reference_eq_key(b)), (a, b)
            assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb), (a, b)
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert sorted(vectors) == sorted(vectors, key=reference_order_key)
    assert sorted(reversed(vectors)) == sorted(vectors, key=reference_order_key)


def test_basis_vector_pickle_frozen_and_repr():
    for bv in (L(1), Y(F(-3, 2)), M(0)):
        back = pickle.loads(pickle.dumps(bv))
        assert back == bv and hash(back) == hash(bv) and back.sort_key == bv.sort_key
    with pytest.raises(dataclasses.FrozenInstanceError):
        L(1).sort_key = (0, 0)
    assert repr(L(1)) == "BasisVector(kind='L', index=HalfInt(twice=2))"
    assert str(Y(F(-3, 2))) == "Y[-3/2]"


def test_basis_vector_hash_ignores_hash_seed():
    code = "from svlie import L; print(hash(L(1)))"
    outs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        outs.add(done.stdout)
    assert len(outs) == 1
