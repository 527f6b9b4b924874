"""Cocommutators and Lie bialgebra structure on the algebra.

A candidate cocommutator is Delta = Delta_r + D, where Delta_r(x) = x . r is
the coboundary of a rank-2 tensor r and D comes from the six-parameter
derivation family

    D(L_n)       = (n a + g) M_0 (x) M_n  +  (n a' + g') M_n (x) M_0
    D(Y_p)       = b M_0 (x) Y_p          +  b' Y_p (x) M_0
    D(M_n)       = 2 b M_0 (x) M_n        +  2 b' M_n (x) M_0

with parameters (a, a', b, b', g, g').  The skew half of the family
(a = -a', b = -b', g = -g') produces Lie bialgebras that are not
coboundary; this is what `certify` distinguishes.

Axiom checks run over finite index windows.  `check_axioms` reports on
the window it is given; `certify` needs a window that holds the generators
and is then exact (its docstring gives the argument).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    GENERATORS,
    KIND_RANK,
    BasisVector,
    Element,
    HalfInt,
    L,
    M,
    _as_frac,
    _bump,
    basis_window,
    bracket_basis,
)
from .linalg import _action_rows, _by_degree, _solve, TensorWindowBasis
from .tensors import (
    NotSkewError,
    Tensor2,
    Tensor3,
    _act_into,
    _key_degree,
    cyclic,
    diag_act2,
    diag_act3,
    is_skew,
    yang_baxter_c,
)

_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)
_M0 = M(0)

# certify's window must hold every generator: L[+-1], L[+-2] and Y[1/2]
CERTIFY_MIN_WINDOW = HalfInt.of(2)


class WindowTooSmallError(ValueError):
    """A window misses a basis vector that a check needs: an image is missing
    from a derivation table, or a certify window leaves out a generator."""


class ZeroDegreeError(ValueError):
    """The inner-witness formula needs a nonzero degree."""


class WitnessMismatchError(ValueError):
    """A table claimed to be inner failed the round-trip verification."""


def _as_element(x) -> Element:
    return Element.basis(x) if isinstance(x, BasisVector) else x


@dataclass(frozen=True)
class SpecialDerivation:
    """Parameters (alpha, alpha_dag, beta, beta_dag, gamma, gamma_dag)."""

    alpha: Fraction
    alpha_dag: Fraction
    beta: Fraction
    beta_dag: Fraction
    gamma: Fraction
    gamma_dag: Fraction

    def __post_init__(self):
        for name in ("alpha", "alpha_dag", "beta", "beta_dag", "gamma", "gamma_dag"):
            object.__setattr__(self, name, _as_frac(getattr(self, name)))

    @classmethod
    def zero(cls) -> "SpecialDerivation":
        return cls(0, 0, 0, 0, 0, 0)

    @classmethod
    def from_csv(cls, text: str) -> "SpecialDerivation":
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 6:
            raise ValueError("expected six comma-separated rationals")
        return cls(*(Fraction(p) for p in parts))

    @property
    def is_zero(self) -> bool:
        return not any((self.alpha, self.alpha_dag, self.beta,
                        self.beta_dag, self.gamma, self.gamma_dag))

    @property
    def is_skew_family(self) -> bool:
        """True iff every image is skew: alpha = -alpha_dag and likewise for
        beta and gamma."""
        return (self.alpha == -self.alpha_dag
                and self.beta == -self.beta_dag
                and self.gamma == -self.gamma_dag)

    def apply_basis(self, bv: BasisVector) -> Tensor2:
        n = bv.index.as_fraction
        if bv.kind == "L":
            left = n * self.alpha + self.gamma
            right = n * self.alpha_dag + self.gamma_dag
            partner = M(bv.index)
        elif bv.kind == "Y":
            left, right, partner = self.beta, self.beta_dag, bv
        else:
            left, right, partner = 2 * self.beta, 2 * self.beta_dag, bv
        return Tensor2([((_M0, partner), left), ((partner, _M0), right)])


def special_apply(d: SpecialDerivation, x) -> Tensor2:
    """Linear extension of the three defining rules of the family."""
    acc = Tensor2.zero()
    for bv, c in _as_element(x)._terms.items():
        acc = acc + d.apply_basis(bv) * c
    return acc


def delta_r(r: Tensor2, x) -> Tensor2:
    """The coboundary cocommutator of r: x . r."""
    return diag_act2(_as_element(x), r)


@dataclass(frozen=True)
class CocommutatorSpec:
    """A candidate cocommutator Delta_r + D given by (r, parameters)."""

    r: Tensor2
    d: SpecialDerivation

    def image_basis(self, bv: BasisVector) -> Tensor2:
        return delta_r(self.r, bv) + self.d.apply_basis(bv)


def cocommutator_apply(spec: CocommutatorSpec, x) -> Tensor2:
    return delta_r(spec.r, x) + special_apply(spec.d, x)


def check_cybe(r: Tensor2) -> bool:
    """True iff c(r) = 0 (the classical Yang-Baxter equation)."""
    return yang_baxter_c(r).is_zero


def check_mybe(r: Tensor2) -> bool:
    """True iff x . c(r) = 0 for the whole algebra.

    A tensor killed by the diagonal action of every algebra element is a
    multiple of M_0 (x) M_0 (x) M_0, so the condition is decided by
    inspecting c(r) directly.
    """
    c = yang_baxter_c(r)
    rest = {key: v for key, v in c._terms.items() if key != (_M0, _M0, _M0)}
    return not rest


def strip_central_square(r: Tensor2) -> Tensor2:
    """Drop the M_0 (x) M_0 component (invisible to the diagonal action)."""
    c = r.coeff((_M0, _M0))
    if not c:
        return r
    return r - Tensor2([((_M0, _M0), c)])


def _one_tensor_delta(delta, t: Tensor2) -> Tensor3 | None:
    """Apply 1 (x) Delta to a rank-2 tensor, Delta given on basis vectors.

    None when `delta` has no image (returns None) for a right factor of t.
    """
    acc: dict = {}
    for (a, b), c in t._terms.items():
        img = delta(b)
        if img is None:
            return None
        for (u, w), c2 in img._terms.items():
            _bump(acc, (a, u, w), c * c2)
    return Tensor3._make(acc)


def cojacobi_defect(delta, x: BasisVector) -> Tensor3 | None:
    """(1 + xi + xi^2)(1 (x) Delta)(Delta x); zero iff co-Jacobi holds at x.

    `delta` maps basis vectors to images.  None when it has no image for x
    or for a basis vector that Delta x needs, as a derivation table outside
    its window: the check cannot be expressed there.
    """
    img = delta(x)
    w = None if img is None else _one_tensor_delta(delta, img)
    if w is None:
        return None
    cw = cyclic(w)
    return w + cw + cyclic(cw)


def coboundary_identity_check(r: Tensor2, x) -> bool:
    """Check (1 + xi + xi^2)(1 (x) Delta_r)(Delta_r x) = x . c(r) exactly.

    Both sides are computed independently.  Requires r skew.
    """
    if not is_skew(r):
        raise NotSkewError("coboundary identity requires a skew tensor")
    x = _as_element(x)
    lhs = Tensor3.zero()
    for bv, c in x._terms.items():
        lhs = lhs + cojacobi_defect(lambda b: delta_r(r, b), bv) * c
    rhs = diag_act3(x, yang_baxter_c(r))
    return lhs == rhs


@dataclass(frozen=True)
class Counterexample:
    axiom: str
    inputs: tuple[BasisVector, ...]
    value: object

    def __str__(self) -> str:
        where = ", ".join(str(bv) for bv in self.inputs)
        return f"{self.axiom} fails at {where}: {self.value}"


@dataclass(frozen=True)
class AxiomReport:
    image_skew: bool
    co_jacobi: bool
    compatibility: bool
    counterexample: Counterexample | None

    @property
    def all_ok(self) -> bool:
        return self.image_skew and self.co_jacobi and self.compatibility


def window_scan_order(bound) -> list[BasisVector]:
    """Window basis ordered kind-major, then by |index|, positive index first.

    This is the order in which axiom counterexamples are reported.
    """
    return sorted(
        basis_window(bound),
        key=lambda bv: (KIND_RANK[bv.kind], abs(bv.index.twice),
                        0 if bv.index.twice >= 0 else 1),
    )


class DerivationTable:
    """A candidate derivation (or cocommutator) restricted to a window.

    `images` maps basis vectors to rank-2 tensors and must cover every basis
    vector with |index| <= window; entries beyond the window are kept and
    used by checks when available.
    """

    def __init__(self, window, images: dict[BasisVector, Tensor2]):
        self.window = HalfInt.of(window)
        missing = [bv for bv in basis_window(self.window) if bv not in images]
        if missing:
            raise WindowTooSmallError(f"no image for {missing[0]} inside window {self.window}")
        self.images = dict(images)

    @classmethod
    def from_callable(cls, fn, window) -> "DerivationTable":
        bound = HalfInt.of(window)
        return cls(bound, {bv: fn(bv) for bv in basis_window(bound)})

    @classmethod
    def from_entries(cls, images: dict[BasisVector, Tensor2]) -> "DerivationTable":
        """Infer the window as the largest bound fully covered by `images`."""
        if any(bv not in images for bv in basis_window(0)):
            raise WindowTooSmallError("table must define images for L[0] and M[0]")
        t = 0
        while all(bv in images for bv in basis_window(HalfInt(t + 1))):
            t += 1
        return cls(HalfInt(t), images)

    def image(self, bv: BasisVector) -> Tensor2 | None:
        return self.images.get(bv)

    def items(self) -> list[tuple[BasisVector, Tensor2]]:
        return sorted(self.images.items(), key=lambda kv: kv[0].sort_key)


def inner_derivation_table(v: Tensor2, window) -> DerivationTable:
    """The inner derivation x -> x . v tabulated on a window."""
    return DerivationTable.from_callable(lambda bv: delta_r(v, bv), window)


def special_derivation_table(d: SpecialDerivation, window) -> DerivationTable:
    return DerivationTable.from_callable(d.apply_basis, window)


def image_memo(subject):
    """The images of a CocommutatorSpec or DerivationTable as a function of
    a basis vector that computes each image at most once.

    A table answers None for a basis vector it has no image for.
    """
    if isinstance(subject, DerivationTable):
        return functools.cache(subject.image)
    if isinstance(subject, CocommutatorSpec):
        return functools.cache(subject.image_basis)
    raise TypeError("expected a CocommutatorSpec or a DerivationTable")


def _compatibility_defect(delta, x: BasisVector, y: BasisVector) -> Tensor2 | None:
    """Delta([x, y]) - x . Delta(y) + y . Delta(x), zero when the identity
    holds; None when `delta` has no image for [x, y]."""
    acc: dict = {}
    hit = bracket_basis(x, y)
    if hit is not None:
        c, z = hit
        dz = delta(z)
        if dz is None:
            return None
        # c and every coefficient of dz are nonzero, so acc stays canonical
        acc = {key: v * c for key, v in dz._terms.items()}
    _act_into(acc, x, _MINUS_ONE, delta(y))
    _act_into(acc, y, _ONE, delta(x))
    return Tensor2._make(acc)


def _first_failure(axiom: str, inputs, defect) -> Counterexample | None:
    """The first tuple of basis vectors in `inputs` on which `defect` is
    nonzero; None from `defect` means the check cannot be expressed there."""
    for args in inputs:
        value = defect(*args)
        if value:
            return Counterexample(axiom, args, value)
    return None


def _first_non_skew(scan, delta) -> Counterexample | None:
    """The first basis vector of `scan` whose image is not skew."""
    return _first_failure("image_skew", ((bv,) for bv in scan),
                          lambda bv: None if is_skew(delta(bv)) else delta(bv))


def _first_cojacobi_failure(scan, delta) -> Counterexample | None:
    """The first basis vector of `scan` where co-Jacobi fails."""
    return _first_failure("co_jacobi", ((bv,) for bv in scan),
                          lambda bv: cojacobi_defect(delta, bv))


def check_axioms(subject, window=6) -> AxiomReport:
    """Check image skewness, co-Jacobi and the compatibility identity
    Delta([x, y]) = x . Delta(y) - y . Delta(x) over a window.

    `subject` is a CocommutatorSpec (images computed on demand, all checks
    exact) or a DerivationTable (co-Jacobi and compatibility are checked only
    where every needed image is available).  Each image is computed once per
    call.  The counterexample is the first failure in scan order of the
    first failing check, in the order image skew, co-Jacobi, compatibility.
    """
    bound = HalfInt.of(window)
    scan = window_scan_order(bound)
    delta = image_memo(subject)
    if isinstance(subject, DerivationTable):
        for bv in scan:
            if delta(bv) is None:
                raise WindowTooSmallError(f"no image for {bv} inside window {bound}")
    skew = _first_non_skew(scan, delta)
    jacobi = _first_cojacobi_failure(scan, delta)
    compat = _first_failure("compatibility", itertools.combinations(scan, 2),
                            lambda x, y: _compatibility_defect(delta, x, y))
    return AxiomReport(skew is None, jacobi is None, compat is None, skew or jacobi or compat)


def decompose_derivation(t: DerivationTable) -> dict[HalfInt, DerivationTable]:
    """Split a table into homogeneous components.

    The component of degree a maps a basis vector x of degree q to the
    (q + a)-graded part of t(x).  Components sum to t; only the finitely
    many nonzero components are returned.
    """
    shifts: set[HalfInt] = set()
    per_key: dict[BasisVector, dict[HalfInt, Tensor2]] = {}
    for bv, img in t.images.items():
        comp = {deg - bv.index: part for deg, part in img.graded_components().items()}
        per_key[bv] = comp
        shifts.update(comp)
    out = {}
    for a in sorted(shifts):
        images = {bv: per_key[bv].get(a, Tensor2.zero()) for bv in t.images}
        out[a] = DerivationTable(t.window, images)
    return out


def inner_witness_nonzero_degree(t_alpha: DerivationTable, a) -> Tensor2:
    """Recover v with t_alpha = (x -> x . v) from a homogeneous table of
    nonzero degree a, via v = (1/a) t_alpha(L_0).

    Verifies the recovery on the whole table and raises WitnessMismatchError
    if t_alpha was not inner.
    """
    a = HalfInt.of(a)
    if not a:
        raise ZeroDegreeError("degree-zero components have no canonical inner witness")
    v = t_alpha.image(L(0)) * Fraction(2, a.twice)
    for bv, img in t_alpha.items():
        if delta_r(v, bv) != img:
            raise WitnessMismatchError(f"table is not inner: mismatch at {bv}")
    return v


def match_inner_on_generators(t: DerivationTable, bound) -> Tensor2 | None:
    """Exact search for v with x . v = t(x) on the five generators.

    Candidate tensors have both factor indices bounded by `bound`.  The
    action of a homogeneous generator g shifts degree by its index, so a
    target term of degree q constrains only the witness part of degree
    q - deg(g): one small system is solved per such degree.  A returned
    witness has no M_0 (x) M_0 component, which the action annihilates
    anyway.  None means no witness exists on this window.
    """
    blocks = _by_degree(TensorWindowBasis(2, bound).keys)
    targets: dict[HalfInt, list] = {}
    for gi, g in enumerate(GENERATORS):
        img = t.image(g)
        if img is None:
            raise WindowTooSmallError(f"table does not cover the generator {g}")
        for out_key, c in img._terms.items():
            targets.setdefault(_key_degree(out_key) - g.index, []).append((gi, out_key, c))
    if any(d not in blocks for d in targets):
        return None

    acc: dict = {}
    for d in sorted(targets):
        block = blocks[d]
        rows = _action_rows(block)
        for gi, out_key, c in targets[d]:
            _bump(rows.setdefault((gi, out_key), {}), len(block), c)
        x = _solve(rows.values(), len(block))
        if x is None:
            return None
        acc.update((key, c) for key, c in zip(block, x) if c)
    v = Tensor2(list(acc.items()))
    for g in GENERATORS:
        if delta_r(v, g) != t.image(g):
            return None
    return v


TRIANGULAR_COBOUNDARY = "TriangularCoboundary"
BIALGEBRA_NOT_COBOUNDARY = "BialgebraNotCoboundary"
NOT_BIALGEBRA = "NotBialgebra"


@dataclass(frozen=True)
class CertifyResult:
    verdict: str
    reason: str | None
    report: AxiomReport

    @property
    def is_bialgebra(self) -> bool:
        return self.verdict != NOT_BIALGEBRA

    @property
    def is_triangular_coboundary(self) -> bool:
        return self.verdict == TRIANGULAR_COBOUNDARY


def certify(spec: CocommutatorSpec, window=6) -> CertifyResult:
    """Classify a candidate cocommutator.

    NotBialgebra when an image is not skew or co-Jacobi fails on the window,
    with the counterexample check_axioms reports.  Otherwise
    TriangularCoboundary exactly when D = 0 and c(r) = 0 (M_0 is central, so
    c ignores the M_0 (x) M_0 part of r), else BialgebraNotCoboundary.

    The verdict is exact for every window of at least 2, the smallest that
    holds all five generators L[+-1], L[+-2], Y[1/2]; a smaller window
    raises WindowTooSmallError.  Delta_r is a coboundary and D a derivation,
    so Delta is a 1-cocycle: compatibility holds everywhere and is reported
    without a check.  With skew images, the co-Jacobi obstruction of a
    1-cocycle is a 1-cocycle too, so it vanishes everywhere once it vanishes
    on the generators, where the spec's images are exact.

    Skew images also make r skew modulo M_0 (x) M_0 and put D in the skew
    half of the family.  The symmetric part S(x) = x . s + D_s(x) of Delta
    (s the symmetric part of r, D_s the member with parameters (a + a')/2,
    (b + b')/2, (g + g')/2 on both sides) is a 1-cocycle, so it vanishes
    once it vanishes on the generators.  At the central M_0 that gives
    b + b' = 0; at L_0, which acts by degree, g + g' = 0 and s = s_0, its
    degree-0 part.  M_n . s_0 = Y_p . s_0 = 0 and the finite support of s_0
    remove every L and Y factor; L_n on the remaining M (x) M terms leaves
    only M_0 (x) M_0, and a + a' = 0.  So an r or D outside these shows as a
    non-skew generator image: an image_skew counterexample inside window 2.
    """
    if HalfInt.of(window) < CERTIFY_MIN_WINDOW:
        raise WindowTooSmallError(
            f"certify needs a window of at least {CERTIFY_MIN_WINDOW} to hold the "
            f"generators L[+-1], L[+-2], Y[1/2]; got {HalfInt.of(window)}")
    scan = window_scan_order(window)
    delta = image_memo(spec)
    skew = _first_non_skew(scan, delta)
    jacobi = _first_cojacobi_failure(scan, delta)
    report = AxiomReport(skew is None, jacobi is None, True, skew or jacobi)
    if not report.all_ok:
        return CertifyResult(NOT_BIALGEBRA, str(report.counterexample), report)
    if spec.d.is_zero and check_cybe(spec.r):
        return CertifyResult(TRIANGULAR_COBOUNDARY, None, report)
    return CertifyResult(BIALGEBRA_NOT_COBOUNDARY, None, report)
