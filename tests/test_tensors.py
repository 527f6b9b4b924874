import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from svlie import (
    Element,
    HalfInt,
    L,
    M,
    Tensor2,
    Tensor3,
    Y,
    basis_window,
    bracket,
    cyclic,
    diag_act2,
    diag_act3,
    is_skew,
    skew_part,
    twist,
    wedge,
    yang_baxter_c,
)

from svlie.algebra import _bump, bracket_basis
from svlie.tensors import _key_degree

from gen import elements, rand_tensor2, skew_tensor2s, tensor2s, tensor3s

eb = Element.basis


def t2(*items):
    return Tensor2(list(items))


def t3(*items):
    return Tensor3(list(items))


def test_twist_examples():
    assert twist(t2(((L(0), M(1)), 1))) == t2(((M(1), L(0)), 1))
    skew = wedge(L(0), L(2))
    assert twist(skew) == -1 * skew


@settings(max_examples=50)
@given(tensor2s())
def test_twist_involution(t):
    assert twist(twist(t)) == t


def test_cyclic_examples():
    u = t3(((L(1), M(0), Y(F(1, 2))), 1))
    assert cyclic(u) == t3(((M(0), Y(F(1, 2)), L(1)), 1))
    sym = t3(((M(0), M(0), M(0)), 5))
    assert cyclic(sym) == sym


@settings(max_examples=50)
@given(tensor3s())
def test_cyclic_cubed_is_identity(u):
    assert cyclic(cyclic(cyclic(u))) == u


def test_diag_act2_displayed_examples():
    assert diag_act2(eb(L(1)), t2(((M(2), M(-2)), 1))) == \
        t2(((M(3), M(-2)), 2), ((M(2), M(-1)), -2))
    assert diag_act2(eb(L(1)), t2(((L(1), M(-1)), 1), ((L(0), M(0)), -1))).is_zero
    u = t2(((L(-1), L(1)), 1), ((L(0), L(0)), -2), ((L(1), L(-1)), 1))
    assert diag_act2(eb(L(1)), u).is_zero
    assert diag_act2(eb(L(-1)), u).is_zero
    rng = random.Random(5)
    for _ in range(5):
        assert diag_act2(eb(M(0)), rand_tensor2(rng, 3)).is_zero


@pytest.mark.parametrize("n", range(-6, 7))
def test_action_identity_family(n):
    # the five L_1 action displays, exact for each integer n
    p = HalfInt.of(n)
    half = HalfInt.of(F(1, 2))
    x = eb(L(1))
    assert diag_act2(x, t2(((M(p), M(-p)), 1))) == \
        t2(((M(p + HalfInt.of(1)), M(-p)), n), ((M(p), M(HalfInt.of(1) - p)), -n))
    assert diag_act2(x, t2(((L(p), M(-p)), 1))) == \
        t2(((L(p + HalfInt.of(1)), M(-p)), n - 1), ((L(p), M(HalfInt.of(1) - p)), -n))
    assert diag_act2(x, t2(((M(p), L(-p)), 1))) == \
        t2(((M(p + HalfInt.of(1)), L(-p)), n), ((M(p), L(HalfInt.of(1) - p)), -(1 + n)))
    assert diag_act2(x, t2(((L(p), L(-p)), 1))) == \
        t2(((L(p + HalfInt.of(1)), L(-p)), n - 1), ((L(p), L(HalfInt.of(1) - p)), -(1 + n)))
    assert diag_act2(x, t2(((Y(p - half), Y(half - p)), 1))) == \
        t2(((Y(p + half), Y(half - p)), n - 1),
           ((Y(p - half), Y(HalfInt.of(1) + half - p)), -n))


def test_is_skew_examples():
    assert is_skew(wedge(L(0), L(2)))
    assert not is_skew(t2(((M(0), M(0)), 1)))
    assert is_skew(Tensor2.zero())


def test_skew_part_examples():
    assert skew_part(t2(((M(0), M(0)), 1))).is_zero
    assert skew_part(t2(((L(0), L(2)), 1))) == F(1, 2) * wedge(L(0), L(2))
    s = wedge(M(1), Y(F(1, 2)))
    assert skew_part(s) == s


@settings(max_examples=50)
@given(tensor2s())
def test_skew_part_is_projection(t):
    s = skew_part(t)
    assert is_skew(s)
    assert skew_part(s) == s


def test_yang_baxter_c_golden():
    assert yang_baxter_c(wedge(M(1), M(2))).is_zero
    assert yang_baxter_c(wedge(L(0), L(2))).is_zero
    # expanded by hand from the double-sum definition
    want = 2 * t3(
        ((L(1), L(0), L(-1)), 1),
        ((L(0), L(-1), L(1)), 1),
        ((L(1), L(-1), L(0)), -1),
        ((L(0), L(1), L(-1)), -1),
        ((L(-1), L(1), L(0)), 1),
        ((L(-1), L(0), L(1)), -1),
    )
    assert yang_baxter_c(wedge(L(1), L(-1))) == want


def test_action_compatibility_module_law():
    # L (x) L is a module: [x,y].t = x.(y.t) - y.(x.t)
    rng = random.Random(11)
    samples = [rand_tensor2(rng, 2) for _ in range(3)]
    window = basis_window(4)
    for x in window:
        for y in window:
            ex, ey = eb(x), eb(y)
            br = bracket(ex, ey)
            for t in samples:
                assert diag_act2(br, t) == \
                    diag_act2(ex, diag_act2(ey, t)) - diag_act2(ey, diag_act2(ex, t))


@settings(max_examples=40)
@given(tensor2s(bound=2), tensor3s(bound=2))
def test_equivariance_of_twist_and_cyclic(t, u):
    for bv in basis_window(2):
        x = eb(bv)
        assert diag_act2(x, twist(t)) == twist(diag_act2(x, t))
        assert diag_act3(x, cyclic(u)) == cyclic(diag_act3(x, u))


@settings(max_examples=40)
@given(skew_tensor2s())
def test_action_preserves_skewness(t):
    assert is_skew(t)
    for bv in basis_window(2):
        assert is_skew(diag_act2(eb(bv), t))


@settings(max_examples=40)
@given(skew_tensor2s(bound=2))
def test_yang_baxter_quadratic_scaling(r):
    lam = F(-5, 3)
    assert yang_baxter_c(lam * r) == lam * lam * yang_baxter_c(r)


def test_yang_baxter_grading():
    rng = random.Random(23)
    for _ in range(30):
        vs = basis_window(2)
        u, w = rng.sample(vs, 2)
        r = wedge(u, w)
        p = r.homogeneous_degree()
        c = yang_baxter_c(r)
        if not c.is_zero:
            assert c.homogeneous_degree() == p + p


# Reference copies of the per-rank code the shared tensor layer replaced: the
# rank-2 action, the rank-3 action loop and the key rules of each class.

def reference_act2_into(acc, g, cg, t):
    for (a, b), ct in t._terms.items():
        c = cg * ct
        hit = bracket_basis(g, a)
        if hit is not None:
            _bump(acc, (hit[1], b), c * hit[0])
        hit = bracket_basis(g, b)
        if hit is not None:
            _bump(acc, (a, hit[1]), c * hit[0])


def reference_diag_act2(x, t):
    acc = {}
    for g, cg in x._terms.items():
        reference_act2_into(acc, g, cg, t)
    return Tensor2._make(acc)


def reference_diag_act3(x, u):
    acc = {}
    for g, cg in x._terms.items():
        for key, ct in u._terms.items():
            c = cg * ct
            for pos in range(3):
                hit = bracket_basis(g, key[pos])
                if hit is not None:
                    _bump(acc, key[:pos] + (hit[1],) + key[pos + 1:], c * hit[0])
    return Tensor3._make(acc)


REFERENCE_SORT_KEY = {
    Tensor2: lambda k: (k[0].sort_key, k[1].sort_key),
    Tensor3: lambda k: (k[0].sort_key, k[1].sort_key, k[2].sort_key),
}
REFERENCE_FORMAT_KEY = {
    Tensor2: lambda k: f"{k[0]} (x) {k[1]}",
    Tensor3: lambda k: f"{k[0]} (x) {k[1]} (x) {k[2]}",
}
REFERENCE_KEY_DEGREE = {
    Tensor2: lambda k: HalfInt(k[0].index.twice + k[1].index.twice),
    Tensor3: lambda k: HalfInt(sum(v.index.twice for v in k)),
}


def reference_terms(t):
    return sorted(t._terms.items(), key=lambda kv: REFERENCE_SORT_KEY[type(t)](kv[0]))


def reference_str(t):
    items = reference_terms(t)
    if not items:
        return "0"
    pieces = []
    for n, (key, c) in enumerate(items):
        body = REFERENCE_FORMAT_KEY[type(t)](key)
        if n == 0:
            pieces.append(body if c == 1 else f"{c} * {body}")
        else:
            mag = abs(c)
            pieces.append((" + " if c > 0 else " - ") + (body if mag == 1 else f"{mag} * {body}"))
    return "".join(pieces)


@settings(max_examples=150)
@given(elements(), tensor2s(), tensor3s())
def test_diag_act_matches_per_rank_reference(x, t, u):
    assert diag_act2(x, t) == reference_diag_act2(x, t)
    assert diag_act3(x, u) == reference_diag_act3(x, u)


def test_diag_act_matches_reference_on_repeated_factors():
    # L[0] maps each factor to a multiple of itself, so both slots of
    # Y (x) Y hit the same key
    y = Y(F(1, 2))
    for x in (eb(L(0)), eb(L(1)) - 3 * eb(Y(F(-1, 2)))):
        t = t2(((y, y), 2), ((L(1), M(-1)), -1))
        u = t3(((y, y, y), 1), ((L(0), M(1), Y(F(-3, 2))), F(1, 2)))
        assert diag_act2(x, t) == reference_diag_act2(x, t)
        assert diag_act3(x, u) == reference_diag_act3(x, u)
    assert diag_act2(eb(L(0)), t2(((y, y), 1))) == t2(((y, y), 1))


@settings(max_examples=100)
@given(tensor2s(), tensor3s())
def test_key_rules_match_per_rank_reference(t, u):
    for v in (t, u):
        assert v.terms() == reference_terms(v)
        assert str(v) == reference_str(v)
        for key in v._terms:
            want = REFERENCE_KEY_DEGREE[type(v)](key)
            assert v._key_degree(key) == _key_degree(key) == want


def test_bad_key_error_names_the_class():
    with pytest.raises(TypeError, match="^Tensor2 keys"):
        Tensor2([((L(0), L(1), L(2)), 1)])
    with pytest.raises(TypeError, match="^Tensor3 keys"):
        Tensor3([((L(0), L(1)), 1)])
    with pytest.raises(TypeError, match="^Tensor2 keys"):
        Tensor2([((L(0), 1), 1)])
