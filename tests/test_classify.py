import itertools
import time
from fractions import Fraction as F

import pytest

from svlie import (
    ClassLabel,
    HalfInt,
    L,
    M,
    NOT_CANDIDATE,
    NotHomogeneousError,
    NotSkewError,
    SearchConfig,
    Tensor2,
    Y,
    ZeroInputError,
    basis_window,
    canonical_key,
    check_cybe,
    check_mybe,
    classify_highest,
    enumerate_skew_candidates,
    highest_component,
    search_cybe,
    wedge,
)

from gen import R, model

HALF = F(1, 2)


def names(labels):
    return sorted(str(lb) for lb in labels)


def test_highest_component_examples():
    r = wedge(L(0), L(2)) + wedge(M(0), M(1))
    p, top = highest_component(r)
    assert p == HalfInt.of(2)
    assert top == wedge(L(0), L(2))

    r2 = wedge(M(1), Y(HALF))
    p2, top2 = highest_component(r2)
    assert p2 == HalfInt.of(F(3, 2))
    assert top2 == r2

    with pytest.raises(ZeroInputError):
        highest_component(Tensor2.zero())


def test_classify_worked_examples():
    assert names(classify_highest(wedge(L(0), L(2)), 2)) == ["V1", "V2"]
    assert names(classify_highest(wedge(M(1), Y(HALF)), F(3, 2))) == ["V8(1)"]
    assert names(classify_highest(wedge(L(1), L(2)), 3)) == [NOT_CANDIDATE]
    assert names(classify_highest(wedge(L(2), Y(HALF)), F(5, 2))) == [NOT_CANDIDATE]


def test_classify_more_memberships():
    # a pure L-and-M wedge family member of V7 when 2p/3 is integral
    assert names(classify_highest(wedge(L(1), Y(HALF)), F(3, 2))) == ["V7"]
    # M_j wedges always land in V5
    assert names(classify_highest(wedge(M(1), M(2)), 3)) == ["V5"]
    # the M_0 ^ Y_p vector sits in the minimal class V8(0), not in wider V6
    assert names(classify_highest(wedge(M(0), Y(HALF)), HALF)) == ["V8(0)"]
    # mixed V6 needs the L part
    assert names(classify_highest(
        wedge(L(0), Y(HALF)) + wedge(M(0), Y(HALF)), HALF)) == ["V6"]
    # an M-M top at degree zero
    assert names(classify_highest(wedge(M(1), M(-1)), 0)) == ["V5"]


def test_classify_preconditions():
    with pytest.raises(NotHomogeneousError):
        classify_highest(wedge(L(0), L(2)) + wedge(M(0), M(1)), 2)
    with pytest.raises(NotHomogeneousError):
        classify_highest(Tensor2.zero(), 2)
    with pytest.raises(NotSkewError,
                       match=r"degree-2 component M\[0\] \(x\) M\[2\] is not skew"):
        classify_highest(Tensor2([((M(0), M(2)), 1)]), 2)


def test_class_label_validation():
    with pytest.raises(ValueError):
        ClassLabel("V1", HalfInt.of(HALF))
    with pytest.raises(ValueError):
        ClassLabel("V6", HalfInt.of(1))
    with pytest.raises(ValueError):
        ClassLabel("V7", HalfInt.of(HALF))  # 2p/3 not integral
    with pytest.raises(ValueError):
        ClassLabel("V8", HalfInt.of(HALF))  # missing branch index
    with pytest.raises(ValueError, match="unknown class family 'V9'"):
        ClassLabel("V9", HalfInt(0))
    assert str(ClassLabel("V7", HalfInt.of(F(3, 2)))) == "V7"
    assert str(ClassLabel("V8", HalfInt.of(HALF), 2)) == "V8(2)"


def small_cfg(**kw):
    defaults = dict(bound=HalfInt.of(1), coeffs=(F(-1), F(0), F(1)), max_terms=1)
    defaults.update(kw)
    return SearchConfig(**defaults)


def test_search_example_membership():
    sols = search_cybe(small_cfg())
    def ray_present(t):
        return any(s == t or s == -1 * t for s in sols)
    assert ray_present(wedge(M(0), M(1)))
    assert ray_present(wedge(M(-1), M(1)))
    assert ray_present(wedge(M(0), Y(HALF)))
    assert ray_present(wedge(L(0), M(1)))
    assert not ray_present(wedge(L(1), L(-1)))


def test_search_empty_coefficients():
    assert search_cybe(small_cfg(coeffs=())) == []
    assert search_cybe(small_cfg(coeffs=(F(0),))) == []


def test_search_coefficients_must_be_exact():
    with pytest.raises(TypeError, match="exact scalar"):
        SearchConfig(1, (0.1,), 1)
    for args in [(1, (1,), 1.5), (1, (1,), 2, 1.5), (1, (1,), 2.0)]:
        with pytest.raises(TypeError, match="max_terms and jobs must be integers"):
            SearchConfig(*args)
    assert small_cfg(coeffs=(1, F(1, 2))).coeffs == (F(1), F(1, 2))


def test_search_dedup_and_scalar_closure():
    sols = search_cybe(small_cfg(coeffs=(F(-2), F(1), F(3))))
    keys = [canonical_key(s) for s in sols]
    assert len(keys) == len(set(keys))
    for i, a in enumerate(sols):
        for b in sols[i + 1:]:
            same_support = a._terms.keys() == b._terms.keys()
            lead = a.terms()[0][1] / b.terms()[0][1] if same_support else None
            if lead is not None:
                assert a != lead * b or a is b
        assert check_cybe(7 * a)
        assert check_cybe(-1 * a)


def test_search_deterministic_across_jobs():
    cfg1 = small_cfg(max_terms=2)
    cfg2 = SearchConfig(cfg1.bound, cfg1.coeffs, cfg1.max_terms, jobs=2)
    assert search_cybe(cfg1) == search_cybe(cfg2)


def test_mybe_equals_cybe_on_skew_enumeration():
    for r in enumerate_skew_candidates(small_cfg(max_terms=2)):
        assert check_cybe(r) == check_mybe(r)


def test_sweep_documents_taxonomy_gap():
    # The taxonomy admits single-class tops only, but the exact oracle finds
    # solutions whose top mixes two classes: L_0^M_0 with M_j^M_{-j} at
    # degree zero, and M_i^Y_{p-i} pairs with 2p-i-j landing back in {i, j}.
    # Those mixes genuinely solve the Yang-Baxter equation (verified here
    # through both c(r) = 0 and the invariance route), so the classifier
    # correctly reports them as outside every listed span.
    cfg = small_cfg(max_terms=2)
    gaps = []
    for r in search_cybe(cfg):
        p, top = highest_component(r)
        labels = classify_highest(top, p)
        if names(labels) == [NOT_CANDIDATE]:
            gaps.append(r)
            assert check_cybe(r) and check_mybe(r)
            kinds = {key[0].kind for key in top._terms} | {key[1].kind for key in top._terms}
            assert kinds in ({"L", "M"}, {"M", "Y"})
    mixed = wedge(L(0), M(0)) + wedge(M(1), M(-1))
    assert check_cybe(mixed)
    assert any(r == mixed or r == -1 * mixed for r in gaps)


def test_classify_matches_linear_solve_reference():
    cfg = SearchConfig(HalfInt.of(2), (F(-2), F(-1), F(1), F(2)), 2)
    tops = {}
    for r in enumerate_skew_candidates(cfg):
        p, top = highest_component(r)
        tops.setdefault(canonical_key(top), (p, top))
    assert len(tops) == 2145
    seen = set()
    v7_dropped = 0
    for p, top in tops.values():
        got = names(classify_highest(top, p))
        assert got == R.classify_top(model(top)), top
        seen.add(tuple(got))
        support = {frozenset(key) for key in model(top)}
        v7_dropped += "V7" not in got and any(
            label == "V7" and support <= pairs for label, pairs in R._spans(p.twice, support))
    # coinciding V1..V4 at p = 0, V5, V7, V8 and NotCandidate all occur, and
    # some tops in V7 are reported as the smaller V8 alone
    assert {("V1", "V2", "V3", "V4"), ("V5",), ("V7",), ("V8(0)",),
            (NOT_CANDIDATE,)} <= seen
    assert v7_dropped


def test_wedge_budget_beyond_the_pair_count_costs_nothing():
    # window 0 holds one pair, L[0] ^ M[0]; a larger budget adds no wedge
    one = enumerate_skew_candidates(SearchConfig(0, (1,), 1))
    start = time.perf_counter()
    many = enumerate_skew_candidates(SearchConfig(0, (1,), 10**6))
    assert time.perf_counter() - start < 1
    assert many == one == [wedge(L(0), M(0))]


def reference_enumerate_skew_candidates(cfg):
    """Every coefficient product built, rescaled to lead 1 and deduplicated."""
    vs = basis_window(cfg.bound)
    pairs = [(u, w) for i, u in enumerate(vs) for w in vs[i + 1:]]
    coeffs = sorted({c for c in cfg.coeffs if c})
    if not coeffs:
        return []
    seen = {}
    for k in range(1, min(cfg.max_terms, len(pairs)) + 1):
        for combo in itertools.combinations(pairs, k):
            for cs in itertools.product(coeffs, repeat=k):
                acc = {}
                for (u, w), c in zip(combo, cs):
                    acc[(u, w)] = c
                    acc[(w, u)] = -c
                t = Tensor2._make(acc)
                lead = t.terms()[0][1]
                rep = t * (1 / lead)
                seen.setdefault(canonical_key(rep), rep)
    return [seen[k] for k in sorted(seen)]


@pytest.mark.parametrize("bound, coeffs, max_terms", [
    (1, (1, -1, 2), 2),
    (F(3, 2), (1, -1), 2),
    (HALF, (1, -1, HALF), 3),
    (HALF, (0, 1, -2), 2),
    (HALF, (1,), 8),
])
def test_enumeration_matches_dedup_reference(bound, coeffs, max_terms):
    cfg = SearchConfig(bound, coeffs, max_terms)
    got, ref = enumerate_skew_candidates(cfg), reference_enumerate_skew_candidates(cfg)
    assert got == ref
    # equal term lists, in order, also give equal str; tests/golden_cli.txt
    # pins the text of `sv search`
    assert [list(t._terms.items()) for t in got] == [list(t._terms.items()) for t in ref]
