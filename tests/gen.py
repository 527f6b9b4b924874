"""Shared generators for the test suite: hypothesis strategies, seeded
random generators for the counted acceptance runs, and exact linear algebra
on the library's own elimination kernel."""

from fractions import Fraction

import hypothesis.strategies as st

from svlie import (
    BasisVector,
    Element,
    HalfInt,
    SpecialDerivation,
    Tensor2,
    Tensor3,
    basis_window,
    wedge,
)
from svlie.linalg import _nullspace, _rref, _solve


def _twices(bound) -> list[int]:
    return [bv.index.twice for bv in basis_window(bound)]


@st.composite
def basis_vectors(draw, bound=3):
    t = HalfInt.of(bound).twice
    kind = draw(st.sampled_from("LYM"))
    if kind == "Y":
        tw = draw(st.integers(-t, t).filter(lambda k: k % 2 != 0))
    else:
        tw = 2 * draw(st.integers(-(t // 2), t // 2))
    return BasisVector(kind, HalfInt(tw))


def coefficients():
    return st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def elements(draw, bound=3, max_terms=4):
    items = draw(st.lists(st.tuples(basis_vectors(bound), coefficients()),
                          max_size=max_terms))
    return Element(items)


@st.composite
def tensor2s(draw, bound=3, max_terms=4):
    pair = st.tuples(basis_vectors(bound), basis_vectors(bound))
    items = draw(st.lists(st.tuples(pair, coefficients()), max_size=max_terms))
    return Tensor2(items)


@st.composite
def tensor3s(draw, bound=3, max_terms=4):
    triple = st.tuples(basis_vectors(bound), basis_vectors(bound), basis_vectors(bound))
    items = draw(st.lists(st.tuples(triple, coefficients()), max_size=max_terms))
    return Tensor3(items)


@st.composite
def skew_tensor2s(draw, bound=3, max_pairs=3):
    acc = Tensor2.zero()
    for _ in range(draw(st.integers(1, max_pairs))):
        u = draw(basis_vectors(bound))
        w = draw(basis_vectors(bound))
        acc = acc + wedge(u, w) * draw(coefficients())
    return acc


# seeded-random twins, for tests that need an exact sample count

def rand_basis(rng, bound) -> BasisVector:
    return rng.choice(basis_window(bound))


def rand_nonzero_coeff(rng, bound=3) -> Fraction:
    c = 0
    while c == 0:
        c = rng.randint(-bound, bound)
    return Fraction(c)


def rand_skew(rng, bound, max_pairs=4, coeff_bound=3) -> Tensor2:
    vs = basis_window(bound)
    acc = Tensor2.zero()
    for _ in range(rng.randint(1, max_pairs)):
        u, w = rng.sample(vs, 2)
        acc = acc + wedge(u, w) * rand_nonzero_coeff(rng, coeff_bound)
    return acc


def rand_tensor2(rng, bound, max_terms=4, coeff_bound=3) -> Tensor2:
    vs = basis_window(bound)
    items = [((rng.choice(vs), rng.choice(vs)), rand_nonzero_coeff(rng, coeff_bound))
             for _ in range(rng.randint(1, max_terms))]
    return Tensor2(items)


def rand_element(rng, bound, max_terms=4, coeff_bound=6) -> Element:
    vs = basis_window(bound)
    items = [(rng.choice(vs), Fraction(rng.randint(-coeff_bound, coeff_bound),
                                       rng.randint(1, 4)))
             for _ in range(rng.randint(0, max_terms))]
    return Element(items)


def rand_tensor3(rng, bound, max_terms=4, coeff_bound=3) -> Tensor3:
    vs = basis_window(bound)
    items = [((rng.choice(vs), rng.choice(vs), rng.choice(vs)),
              rand_nonzero_coeff(rng, coeff_bound))
             for _ in range(rng.randint(0, max_terms))]
    return Tensor3(items)


def rand_special(rng, coeff_bound=3) -> SpecialDerivation:
    return SpecialDerivation(*(Fraction(rng.randint(-coeff_bound, coeff_bound))
                               for _ in range(6)))


def rand_special_skew(rng, coeff_bound=3) -> SpecialDerivation:
    a, b, g = (Fraction(rng.randint(-coeff_bound, coeff_bound)) for _ in range(3))
    return SpecialDerivation(a, -a, b, -b, g, -g)


# exact linear algebra through `_rref`, on sparse rows {column: Fraction}

def sparse_rows(grid) -> list[dict]:
    """Dense rows as the kernel's sparse rows: nonzero Fractions only."""
    return [{j: Fraction(v) for j, v in enumerate(row) if v} for row in grid]


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    return _nullspace(_rref(rows), ncols)


def solve(rows, ncols: int, rhs) -> list[Fraction] | None:
    """A solution x of rows . x = rhs with free variables at zero, or None."""
    aug = []
    for row, b in zip(rows, rhs, strict=True):
        aug.append({**row, ncols: Fraction(b)} if b else row)
    return _solve(aug, ncols)


def multiply(rows, x) -> list[Fraction]:
    return [sum((v * x[j] for j, v in row.items()), Fraction(0)) for row in rows]


def in_span(t, vectors) -> bool:
    """True iff t is a rational combination of `vectors`, all of t's type."""
    rows: dict = {key: {} for key in t._terms}
    for j, v in enumerate(vectors):
        for key, c in v._terms.items():
            rows.setdefault(key, {})[j] = c
    return solve(list(rows.values()), len(vectors), [t.coeff(k) for k in rows]) is not None
