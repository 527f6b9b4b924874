import random
from fractions import Fraction as F

import pytest

from svlie import (
    AxiomReport,
    BIALGEBRA_NOT_COBOUNDARY,
    CertifyResult,
    CocommutatorSpec,
    Counterexample,
    DerivationTable,
    Element,
    GENERATORS,
    HalfInt,
    L,
    M,
    NOT_BIALGEBRA,
    NotSkewError,
    RationalMatrix,
    SpecialDerivation,
    TRIANGULAR_COBOUNDARY,
    Tensor2,
    Tensor3,
    TensorWindowBasis,
    WindowTooSmallError,
    WitnessMismatchError,
    Y,
    ZeroDegreeError,
    basis_window,
    bracket_basis,
    certify,
    check_axioms,
    check_cybe,
    check_mybe,
    coboundary_identity_check,
    cocommutator_apply,
    cojacobi_defect,
    cyclic,
    decompose_derivation,
    delta_r,
    diag_act2,
    diag_act3,
    image_memo,
    inner_derivation_table,
    inner_witness_nonzero_degree,
    is_skew,
    match_inner_on_generators,
    special_apply,
    special_derivation_table,
    strip_central_square,
    wedge,
    window_scan_order,
    yang_baxter_c,
)
from svlie.bialgebra import CERTIFY_MIN_WINDOW

from gen import (
    rand_nonzero_coeff,
    rand_skew,
    rand_special,
    rand_special_skew,
    rand_tensor2,
)

eb = Element.basis
HALF = F(1, 2)


def t2(*items):
    return Tensor2(list(items))


def test_special_apply_examples():
    d = SpecialDerivation(1, -1, 0, 0, 0, 0)
    assert special_apply(d, eb(L(3))) == t2(((M(0), M(3)), 3), ((M(3), M(0)), -3))
    d2 = SpecialDerivation(0, 0, 1, -1, 0, 0)
    assert special_apply(d2, eb(M(2))) == t2(((M(0), M(2)), 2), ((M(2), M(0)), -2))
    rng = random.Random(1)
    for _ in range(5):
        d3 = rand_special_skew(rng)
        assert special_apply(d3, eb(M(0))).is_zero


def test_special_apply_y_rule():
    d = SpecialDerivation(0, 0, F(2, 3), 5, 0, 0)
    assert special_apply(d, eb(Y(HALF))) == \
        t2(((M(0), Y(HALF)), F(2, 3)), ((Y(HALF), M(0)), 5))


def test_skew_family_predicate_matches_image_skewness():
    rng = random.Random(2)
    window = basis_window(4)
    for _ in range(10):
        d = rand_special(rng)
        all_skew = all(is_skew(d.apply_basis(bv)) for bv in window)
        assert all_skew == d.is_skew_family


def test_delta_r_examples():
    r = wedge(L(0), M(3))
    assert delta_r(r, eb(L(0))) == 3 * r
    rng = random.Random(3)
    for _ in range(5):
        assert delta_r(rand_tensor2(rng, 3), eb(M(0))).is_zero
        s = rand_skew(rng, 3)
        assert is_skew(delta_r(s, eb(rng.choice(basis_window(3)))))


def test_cocommutator_apply_examples():
    spec = CocommutatorSpec(Tensor2.zero(), SpecialDerivation(0, 0, 1, -1, 0, 0))
    assert cocommutator_apply(spec, eb(Y(HALF))) == wedge(M(0), Y(HALF))
    spec2 = CocommutatorSpec(wedge(M(0), M(1)), SpecialDerivation.zero())
    assert cocommutator_apply(spec2, eb(L(1))) == wedge(M(0), M(2))
    spec3 = CocommutatorSpec(Tensor2.zero(), SpecialDerivation.zero())
    assert cocommutator_apply(spec3, eb(L(5))).is_zero


def test_check_cybe_examples():
    assert check_cybe(wedge(M(1), Y(HALF)))
    assert check_cybe(wedge(L(0), M(1)))
    assert not check_cybe(wedge(L(1), L(-1)))


def test_check_mybe_examples():
    assert check_mybe(wedge(M(1), Y(HALF)))
    assert not check_mybe(wedge(L(1), L(-1)))
    # non-skew input whose bracket lands exactly on the invariant line
    r = t2(((M(0), Y(HALF)), 1), ((Y(-HALF), M(0)), 1))
    assert check_mybe(r) and not check_cybe(r)


def test_check_axioms_skew_family_passes():
    spec = CocommutatorSpec(Tensor2.zero(), SpecialDerivation(1, -1, 1, -1, 0, 0))
    report = check_axioms(spec, 6)
    assert report.all_ok and report.counterexample is None


def test_check_axioms_triangular_r_passes():
    spec = CocommutatorSpec(wedge(M(1), Y(HALF)), SpecialDerivation.zero())
    assert check_axioms(spec, 6).all_ok


def test_check_axioms_non_skew_counterexample():
    spec = CocommutatorSpec(Tensor2.zero(), SpecialDerivation(1, 1, 0, 0, 0, 0))
    report = check_axioms(spec, 3)
    assert not report.image_skew
    cex = report.counterexample
    assert cex.axiom == "image_skew"
    assert cex.inputs == (L(1),)
    assert cex.value == t2(((M(0), M(1)), 1), ((M(1), M(0)), 1))


def test_check_axioms_cojacobi_failure():
    spec = CocommutatorSpec(wedge(L(1), L(-1)), SpecialDerivation.zero())
    report = check_axioms(spec, 3)
    assert report.image_skew
    assert not report.co_jacobi
    assert report.counterexample.axiom == "co_jacobi"


def test_compatibility_for_whole_family():
    rng = random.Random(4)
    for _ in range(8):
        table = special_derivation_table(rand_special(rng), 5)
        assert check_axioms(table, 5).compatibility


def test_coboundary_identity_examples():
    assert coboundary_identity_check(wedge(M(0), M(1)), eb(L(1)))
    r = wedge(L(1), L(-1))
    assert coboundary_identity_check(r, eb(L(0)))
    assert coboundary_identity_check(r, eb(L(1)))
    # at x = L_2 both routes are nonzero; compute them independently
    defect = cojacobi_defect(lambda b: diag_act2(eb(b), r), L(2))
    moved = diag_act3(eb(L(2)), yang_baxter_c(r))
    assert not defect.is_zero
    assert defect == moved


def test_coboundary_identity_requires_skew():
    with pytest.raises(NotSkewError):
        coboundary_identity_check(t2(((M(0), M(0)), 1)), eb(L(1)))


def test_coboundary_identity_random_sweep():
    rng = random.Random(6)
    window = basis_window(2)
    for _ in range(20):
        r = rand_skew(rng, 3)
        x = rng.choice(window)
        assert coboundary_identity_check(r, eb(x))


def test_coboundary_identity_on_oracle_enumeration():
    from svlie import HalfInt, SearchConfig, enumerate_skew_candidates

    cfg = SearchConfig(HalfInt.of(1), (F(-1), F(1)), 1)
    window = basis_window(3)
    for r in enumerate_skew_candidates(cfg):
        for x in window:
            assert coboundary_identity_check(r, eb(x))


def test_derivation_table_window_inference():
    d = SpecialDerivation(1, -1, 0, 0, 2, -2)
    full = special_derivation_table(d, 2)
    rebuilt = DerivationTable.from_entries(full.images)
    assert rebuilt.window == HalfInt.of(2)
    partial = dict(full.images)
    del partial[Y(F(3, 2))]
    assert DerivationTable.from_entries(partial).window == HalfInt.of(1)
    with pytest.raises(WindowTooSmallError):
        DerivationTable.from_entries({L(0): Tensor2.zero()})
    no_l0 = dict(full.images)
    del no_l0[L(0)]
    with pytest.raises(WindowTooSmallError, match=r"L\[0\] and M\[0\]"):
        DerivationTable.from_entries(no_l0)
    ring_two_gap = dict(full.images)
    del ring_two_gap[M(-1)]
    assert DerivationTable.from_entries(ring_two_gap).window == HalfInt.of(HALF)


def test_check_axioms_window_too_small():
    table = special_derivation_table(SpecialDerivation(1, -1, 0, 0, 0, 0), 2)
    with pytest.raises(WindowTooSmallError):
        check_axioms(table, 5)


def test_table_checks_match_on_demand_checks():
    d = SpecialDerivation(2, -2, 1, -1, 3, -3)
    table = special_derivation_table(d, 6)
    report = check_axioms(table, 3)
    assert report.all_ok


def test_decompose_examples():
    images = {bv: Tensor2.zero() for bv in basis_window(1)}
    images[L(1)] = t2(((M(0), M(1)), 1), ((L(0), M(3)), 1))
    table = DerivationTable(HalfInt.of(1), images)
    comps = decompose_derivation(table)
    assert sorted(c.twice for c in comps) == [0, 4]
    assert comps[HalfInt.of(0)].image(L(1)) == t2(((M(0), M(1)), 1))
    assert comps[HalfInt.of(2)].image(L(1)) == t2(((L(0), M(3)), 1))

    rng = random.Random(7)
    special = special_derivation_table(rand_special(rng), 3)
    sc = decompose_derivation(special)
    assert list(sc) == [HalfInt.of(0)]

    inner = inner_derivation_table(t2(((M(2), M(0)), 1)), 2)
    ic = decompose_derivation(inner)
    assert list(ic) == [HalfInt.of(2)]


def test_decompose_components_sum_and_derive():
    rng = random.Random(8)
    v = rand_tensor2(rng, 2, max_terms=5)
    table = inner_derivation_table(v, 3)
    comps = decompose_derivation(table)
    for bv in table.images:
        total = Tensor2.zero()
        for part in comps.values():
            total = total + part.image(bv)
        assert total == table.image(bv)
    for part in comps.values():
        assert check_axioms(part, 3).compatibility


def test_inner_witness_examples():
    v = t2(((M(2), M(0)), 1))
    table = inner_derivation_table(v, 3)
    assert inner_witness_nonzero_degree(table, 2) == v
    vy = t2(((Y(HALF), M(0)), 1))
    ty = inner_derivation_table(vy, 3)
    assert inner_witness_nonzero_degree(ty, HALF) == vy
    with pytest.raises(ZeroDegreeError):
        inner_witness_nonzero_degree(table, 0)


def test_inner_witness_mismatch_detected():
    v = t2(((M(2), M(0)), 1))
    images = dict(inner_derivation_table(v, 2).images)
    images[L(1)] = images[L(1)] + t2(((M(3), M(0)), 1))
    broken = DerivationTable(HalfInt.of(2), images)
    with pytest.raises(WitnessMismatchError):
        inner_witness_nonzero_degree(broken, 2)


def test_inner_round_trip_modulo_invariant_line():
    m0m0 = t2(((M(0), M(0)), 1))
    rng = random.Random(9)
    for _ in range(10):
        v = rand_tensor2(rng, 2, max_terms=4)
        # keep only nonzero-degree components, the ones witnesses can recover
        v = Tensor2([(k, c) for k, c in v._terms.items()
                     if Tensor2._key_degree(k).twice != 0])
        lam = F(rng.randint(-3, 3))
        full = v + lam * m0m0
        table = inner_derivation_table(full, 3)
        rebuilt = Tensor2.zero()
        for a, part in decompose_derivation(table).items():
            if a.twice != 0:
                rebuilt = rebuilt + inner_witness_nonzero_degree(part, a)
        assert rebuilt == v
        assert strip_central_square(full - rebuilt).is_zero


def test_match_inner_none_for_family_directions():
    for k in range(6):
        params = [0] * 6
        params[k] = 1
        table = special_derivation_table(SpecialDerivation(*params), 2)
        assert match_inner_on_generators(table, 2) is None


def test_match_inner_round_trip():
    v0 = wedge(L(0), M(1))
    table = inner_derivation_table(v0, 2)
    assert match_inner_on_generators(table, 1) == v0
    assert match_inner_on_generators(table, 2) == v0
    zero_table = DerivationTable.from_callable(lambda bv: Tensor2.zero(), 2)
    assert match_inner_on_generators(zero_table, 2) == Tensor2.zero()


def test_match_inner_requires_generator_images():
    small = DerivationTable.from_callable(lambda bv: Tensor2.zero(), 1)
    with pytest.raises(WindowTooSmallError):
        match_inner_on_generators(small, 2)  # L[2] image missing


def reference_match_unblocked(t, bound):
    """The inner-witness search as one unblocked exact system over every
    rank-2 key of the window, with the free variables at zero."""
    keys = TensorWindowBasis(2, bound).keys
    rows = {}
    for j, key in enumerate(keys):
        for gi, g in enumerate(GENERATORS):
            for pos in range(2):
                hit = bracket_basis(g, key[pos])
                if hit is not None:
                    out = key[:pos] + (hit[1],) + key[pos + 1:]
                    row = rows.setdefault((gi, out), {})
                    row[j] = row.get(j, F(0)) + hit[0]
    rhs = {}
    for gi, g in enumerate(GENERATORS):
        for out, c in t.image(g)._terms.items():
            rows.setdefault((gi, out), {})
            rhs[(gi, out)] = c
    order = list(rows)
    mat = RationalMatrix(len(order), len(keys),
                         [{j: c for j, c in rows[k].items() if c} for k in order])
    x = mat.solve([rhs.get(k, F(0)) for k in order])
    if x is None:
        return None
    v = Tensor2([(key, c) for key, c in zip(keys, x) if c])
    if any(diag_act2(Element.basis(g), v) != t.image(g) for g in GENERATORS):
        return None
    return v


def test_match_inner_full_space_cross_check():
    rng = random.Random(10)
    for _ in range(4):
        v = rand_tensor2(rng, 1, max_terms=3)
        table = inner_derivation_table(v, 2)
        blocked = match_inner_on_generators(table, 2)
        assert blocked == reference_match_unblocked(table, 2)
        assert blocked == strip_central_square(v)
    for _ in range(4):
        # witnesses outside the candidate window, and non-inner tables
        v = rand_tensor2(rng, 2, max_terms=3)
        d = rand_special(rng)
        for table in (inner_derivation_table(v, 2),
                      DerivationTable.from_callable(
                          lambda bv: diag_act2(Element.basis(bv), v) + d.apply_basis(bv), 2)):
            for bound in (1, 2):
                assert (match_inner_on_generators(table, bound)
                        == reference_match_unblocked(table, bound))
    d = SpecialDerivation(0, 0, 1, 0, 0, 0)
    table = special_derivation_table(d, 2)
    assert reference_match_unblocked(table, 2) is None
    assert match_inner_on_generators(table, 2) is None


def test_certify_examples():
    tri = certify(CocommutatorSpec(wedge(M(1), Y(HALF)), SpecialDerivation.zero()), 6)
    assert tri.verdict == TRIANGULAR_COBOUNDARY

    mixed = certify(CocommutatorSpec(Tensor2.zero(),
                                     SpecialDerivation(0, 0, 1, -1, 0, 0)), 6)
    assert mixed.verdict == BIALGEBRA_NOT_COBOUNDARY

    bad = certify(CocommutatorSpec(wedge(L(1), L(-1)), SpecialDerivation.zero()), 6)
    assert bad.verdict == NOT_BIALGEBRA
    assert "co_jacobi" in bad.reason


def test_certify_gate_reasons():
    sym = certify(CocommutatorSpec(t2(((M(1), M(1)), 1)), SpecialDerivation.zero()), 3)
    assert sym.verdict == NOT_BIALGEBRA

    not_d1 = certify(CocommutatorSpec(Tensor2.zero(),
                                      SpecialDerivation(1, 1, 0, 0, 0, 0)), 3)
    assert not_d1.verdict == NOT_BIALGEBRA

    # the invisible central square does not disturb certification
    shifted = certify(CocommutatorSpec(wedge(M(1), Y(HALF)) + 4 * t2(((M(0), M(0)), 1)),
                                       SpecialDerivation.zero()), 5)
    assert shifted.verdict == TRIANGULAR_COBOUNDARY


def test_certify_mixed_r_and_d():
    # summing two individually valid cocommutators is not automatically a
    # bialgebra: the co-Jacobi cross terms fail here, and certify says so
    spec = CocommutatorSpec(wedge(M(1), Y(HALF)), SpecialDerivation(0, 0, 2, -2, 0, 0))
    res = certify(spec, 5)
    assert res.verdict == NOT_BIALGEBRA
    assert not res.report.co_jacobi
    assert res.report.image_skew and res.report.compatibility


def reference_check_axioms(subject, window) -> AxiomReport:
    """Plain per-pair axiom checks that recompute every image they use;
    the reference check_axioms must agree with."""
    bound = HalfInt.of(window)
    scan = window_scan_order(bound)
    if isinstance(subject, DerivationTable):
        for bv in scan:
            if subject.image(bv) is None:
                raise WindowTooSmallError(f"no image for {bv} inside window {bound}")
        delta = subject.image
    else:
        delta = subject.image_basis
    failures = []

    image_skew = True
    for bv in scan:
        img = delta(bv)
        if not is_skew(img):
            image_skew = False
            failures.append(Counterexample("image_skew", (bv,), img))
            break

    co_jacobi = True
    for bv in scan:
        img = delta(bv)
        parts = {b: delta(b) for (_, b) in img._terms}
        if any(p is None for p in parts.values()):
            continue
        w = Tensor3.zero()
        for (a, b), c in img._terms.items():
            w = w + Tensor3([((a, u, v), c * c2) for (u, v), c2 in parts[b]._terms.items()])
        cw = cyclic(w)
        defect = w + cw + cyclic(cw)
        if not defect.is_zero:
            co_jacobi = False
            failures.append(Counterexample("co_jacobi", (bv,), defect))
            break

    compatibility = True
    done = False
    for i, x in enumerate(scan):
        if done:
            break
        for y in scan[i + 1:]:
            hit = bracket_basis(x, y)
            if hit is None:
                lhs = Tensor2.zero()
            else:
                c, z = hit
                img = delta(z)
                if img is None:
                    continue
                lhs = img * c
            defect = lhs - diag_act2(eb(x), delta(y)) + diag_act2(eb(y), delta(x))
            if not defect.is_zero:
                compatibility = False
                failures.append(Counterexample("compatibility", (x, y), defect))
                done = True
                break

    return AxiomReport(image_skew, co_jacobi, compatibility,
                       failures[0] if failures else None)


def _square_table(window) -> DerivationTable:
    # L[n] -> n^2 M[0]^M[n]: skew images and co-Jacobi hold, but n^2 is not
    # linear in n, so the compatibility identity fails
    def image(bv):
        if bv.kind != "L":
            return Tensor2.zero()
        n = bv.index.as_fraction
        return wedge(M(0), M(bv.index)) * (n * n)
    return DerivationTable.from_callable(image, window)


def _differential_subjects():
    rng = random.Random(21)
    subjects = [
        (CocommutatorSpec(wedge(M(1), Y(HALF)), SpecialDerivation.zero()), 6),
        (CocommutatorSpec(Tensor2.zero(), SpecialDerivation(1, -1, 1, -1, 2, -2)), 4),
        (CocommutatorSpec(wedge(L(1), L(-1)), SpecialDerivation.zero()), 3),
        (CocommutatorSpec(wedge(M(1), Y(HALF)), SpecialDerivation(0, 0, 2, -2, 0, 0)), 3),
        (CocommutatorSpec(Tensor2.zero(), SpecialDerivation(1, 1, 0, 0, 0, 0)), 3),
        (_square_table(6), 3),
        (_square_table(3), 3),
    ]
    for _ in range(6):
        subjects.append((CocommutatorSpec(rand_skew(rng, 2, max_pairs=2),
                                          rand_special_skew(rng)), 2))
        subjects.append((CocommutatorSpec(rand_tensor2(rng, 1, max_terms=2),
                                          rand_special(rng)), 2))
        subjects.append((special_derivation_table(rand_special(rng), 4), 2))
        subjects.append((inner_derivation_table(rand_skew(rng, 1, max_pairs=2), 3), 3))
        subjects.append((inner_derivation_table(rand_tensor2(rng, 1, max_terms=2), 2), 2))
    return subjects


def test_check_axioms_matches_reference_loop():
    seen = set()
    for subject, window in _differential_subjects():
        fast = check_axioms(subject, window)
        assert fast == reference_check_axioms(subject, window)
        if fast.counterexample is not None:
            seen.add(fast.counterexample.axiom)
    assert seen == {"image_skew", "co_jacobi", "compatibility"}


def test_check_axioms_computes_each_image_once(monkeypatch):
    calls = {}
    original = CocommutatorSpec.image_basis

    def counting(self, bv):
        calls[bv] = calls.get(bv, 0) + 1
        return original(self, bv)

    monkeypatch.setattr(CocommutatorSpec, "image_basis", counting)
    for spec in (CocommutatorSpec(wedge(M(1), Y(HALF)), SpecialDerivation.zero()),
                 CocommutatorSpec(wedge(L(0), M(1)), SpecialDerivation(1, -1, 1, -1, 2, -2))):
        calls.clear()
        check_axioms(spec, 6)
        assert calls and max(calls.values()) == 1


def test_image_memo_caches_a_tables_misses(monkeypatch):
    calls = []
    original = DerivationTable.image
    monkeypatch.setattr(DerivationTable, "image",
                        lambda self, bv: calls.append(bv) or original(self, bv))
    delta = image_memo(special_derivation_table(SpecialDerivation.zero(), 0))
    assert [delta(L(5)), delta(L(5))] == [None, None] and calls == [L(5)]
    with pytest.raises(TypeError):
        image_memo(wedge(L(0), M(0)))


def test_certify_window_floor():
    spec = CocommutatorSpec(wedge(L(1), L(-1)), SpecialDerivation.zero())
    for window in (0, HALF, 1, F(3, 2)):
        with pytest.raises(WindowTooSmallError):
            certify(spec, window)
    assert certify(spec, 2).verdict == NOT_BIALGEBRA


def test_certify_window_two_agrees_with_window_six():
    # r has at most two wedges inside window 2, drawn from the whole window
    # or from the Y and M vectors alone, where Yang-Baxter solutions are
    # common, so that every verdict occurs
    rng = random.Random(12)
    window = basis_window(2)
    ideal = [bv for bv in window if bv.kind != "L"]
    verdicts = set()
    for i in range(30):
        pool = window if i % 2 else ideal
        r = Tensor2.zero()
        for _ in range(rng.randint(1, 2)):
            u, w = rng.sample(pool, 2)
            r = r + wedge(u, w) * rand_nonzero_coeff(rng)
        d = rand_special_skew(rng) if i % 3 else SpecialDerivation.zero()
        spec = CocommutatorSpec(r, d)
        verdict = certify(spec, 2).verdict
        assert verdict == certify(spec, 6).verdict
        verdicts.add(verdict)
    assert verdicts == {TRIANGULAR_COBOUNDARY, BIALGEBRA_NOT_COBOUNDARY, NOT_BIALGEBRA}


def test_cojacobi_obstruction_is_a_cocycle():
    # J(x) = cojacobi_defect at x satisfies J([x, y]) = x . J(y) - y . J(x)
    # whenever Delta is a cocycle with skew images: certify's window floor
    # rests on it
    rng = random.Random(13)
    window = basis_window(1)
    nonzero = 0
    for _ in range(3):
        spec = CocommutatorSpec(rand_skew(rng, 1, max_pairs=2), rand_special_skew(rng))
        delta = image_memo(spec)
        jac = {x: cojacobi_defect(delta, x) for x in window}
        nonzero += sum(1 for j in jac.values() if j)
        for x in window:
            for y in window:
                hit = bracket_basis(x, y)
                lhs = Tensor3.zero() if hit is None else cojacobi_defect(delta, hit[1]) * hit[0]
                assert lhs == diag_act3(eb(x), jac[y]) - diag_act3(eb(y), jac[x])
    assert nonzero


def reference_certify(spec: CocommutatorSpec, window=6) -> CertifyResult:
    """certify as it was when it ran all of check_axioms and then two gates
    on r and the parameters; the reference certify must agree with."""
    if HalfInt.of(window) < CERTIFY_MIN_WINDOW:
        raise WindowTooSmallError(
            f"certify needs a window of at least {CERTIFY_MIN_WINDOW} to hold the "
            f"generators L[+-1], L[+-2], Y[1/2]; got {HalfInt.of(window)}")
    report = check_axioms(spec, window)
    if not report.all_ok:
        return CertifyResult(NOT_BIALGEBRA, str(report.counterexample), report)
    r_skew = strip_central_square(spec.r)
    if not is_skew(r_skew):
        return CertifyResult(NOT_BIALGEBRA, "r is not skew modulo M[0] (x) M[0]", report)
    if not spec.d.is_skew_family:
        return CertifyResult(
            NOT_BIALGEBRA, "parameter part lies outside the skew half of the family", report)
    if spec.d.is_zero and check_cybe(r_skew):
        return CertifyResult(TRIANGULAR_COBOUNDARY, None, report)
    return CertifyResult(BIALGEBRA_NOT_COBOUNDARY, None, report)


def _certify_specs(n, seed) -> list[CocommutatorSpec]:
    # five shapes in turn: a non-skew r; a skew r with any family member; a
    # skew r on window 2 with a skew family member; and two with r on the
    # Y and M vectors alone, where Yang-Baxter solutions are common, one
    # with an M[0] (x) M[0] term and D = 0, one with a skew family member
    rng = random.Random(seed)
    window = basis_window(2)
    ideal = [bv for bv in window if bv.kind != "L"]
    specs = []
    for i in range(n):
        shape = i % 5
        if shape == 0:
            r, d = rand_tensor2(rng, 1, max_terms=2), rand_special_skew(rng)
        elif shape == 1:
            r, d = rand_skew(rng, 1, max_pairs=1), rand_special(rng)
        else:
            pool = window if shape == 2 else ideal
            r = Tensor2.zero()
            for _ in range(rng.randint(1, 2)):
                u, w = rng.sample(pool, 2)
                r = r + wedge(u, w) * rand_nonzero_coeff(rng)
            d = SpecialDerivation.zero() if shape == 3 else rand_special_skew(rng)
            if shape == 3 and rng.random() < 0.5:
                r = r + t2(((M(0), M(0)), rand_nonzero_coeff(rng)))
        specs.append(CocommutatorSpec(r, d))
    return specs


def test_certify_matches_reference_certify():
    verdicts, kinds = set(), set()
    gates = {"r": 0, "d": 0}
    for window, n in ((2, 40), (6, 40), (10, 5)):
        for spec in _certify_specs(n, 31 + window):
            res = certify(spec, window)
            assert res == reference_certify(spec, window)
            verdicts.add(res.verdict)
            if res.report.counterexample is not None:
                kinds.add(res.report.counterexample.axiom)
            # a spec failing a former gate is refused by a non-skew image
            for gate, failed in (("r", not is_skew(strip_central_square(spec.r))),
                                 ("d", not spec.d.is_skew_family)):
                if failed:
                    gates[gate] += 1
                    assert res.report.counterexample.axiom == "image_skew"
    assert verdicts == {TRIANGULAR_COBOUNDARY, BIALGEBRA_NOT_COBOUNDARY, NOT_BIALGEBRA}
    assert kinds == {"image_skew", "co_jacobi"}
    assert gates["r"] and gates["d"]


def test_skew_generator_images_force_the_former_gates():
    # certify's lemma on window 3: x . s + D_s(x) = 0 on the generators, for
    # s symmetric and D_s the family member with equal parameters on both
    # sides, has only s = M[0] (x) M[0] with zero parameters as solution
    vs = basis_window(3)
    sym = [t2(((u, w), 1), ((w, u), 1)) for i, u in enumerate(vs) for w in vs[i:]]
    family = [SpecialDerivation(1, 1, 0, 0, 0, 0), SpecialDerivation(0, 0, 1, 1, 0, 0),
              SpecialDerivation(0, 0, 0, 0, 1, 1)]
    rows: dict = {}
    for gi, g in enumerate(GENERATORS):
        columns = [diag_act2(eb(g), s) for s in sym] + [d.apply_basis(g) for d in family]
        for j, img in enumerate(columns):
            for key, c in img._terms.items():
                rows.setdefault((gi, key), {})[j] = c
    kernel = RationalMatrix(len(rows), len(sym) + 3, list(rows.values())).nullspace()
    assert len(kernel) == 1
    (only,) = [j for j, c in enumerate(kernel[0]) if c]
    assert sym[only] == t2(((M(0), M(0)), 2))
