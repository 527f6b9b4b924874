"""Exact rational linear algebra over finite tensor windows.

Everything runs over `fractions.Fraction`: Gaussian elimination with sparse
rows, nullspace extraction in reduced-echelon canonical form, and the two
window solvers that corroborate structural facts about the algebra:

* `invariant_tensors(n, N)`: window tensors killed by the diagonal action of
  every generator.  Constraints are exact (components of g.t that leave the
  window must vanish too), so solutions are genuinely invariant, not window
  artifacts; expected answer is the line through M_0 (x) ... (x) M_0.

* `skew_action_space(N)`: window rank-2 tensors v with g.v skew for every
  generator; expected answer is skew(window) plus the line through
  M_0 (x) M_0.

Both solvers split their constraint systems into independent blocks per
total degree (the action of a homogeneous generator shifts degree by a fixed
amount), which keeps each elimination small.  One builder, `_action_rows`,
writes the generator action rows of a block for both solvers and for the
inner-witness matcher in `bialgebra`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .algebra import GENERATORS, HalfInt, _bump, basis_window
from .tensors import _CLASS_OF_RANK, Tensor2, _act_key, _key_degree, canonical_key

_ZERO = Fraction(0)


def _rref(rows) -> dict[int, dict[int, Fraction]]:
    """Reduce sparse rows to reduced row echelon form.

    Returns pivot column -> its fully reduced row (pivot entry 1).  Rows are
    dicts column -> Fraction and must store no zero: a stored zero can become
    the pivot and divide by zero, and an int pivot would divide into a float.
    The input rows are not mutated.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for original in rows:
        row = dict(original)
        # pivot rows are fully reduced, so clearing one pivot column never
        # refills another: one pass over the pivot columns of the row does
        for p in row.keys() & pivots.keys():
            f = row.pop(p)
            for k, v in pivots[p].items():
                if k == p:
                    continue
                nv = row.get(k, _ZERO) - f * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
        if not row:
            continue
        c = min(row)
        inv = 1 / row[c]
        row = {k: v * inv for k, v in row.items()}
        for other in pivots.values():
            f = other.get(c)
            if f:
                for k, v in row.items():
                    nv = other.get(k, _ZERO) - f * v
                    if nv:
                        other[k] = nv
                    else:
                        other.pop(k, None)
        pivots[c] = row
    return pivots


def _nullspace(pivots: dict[int, dict[int, Fraction]], ncols: int) -> list[list[Fraction]]:
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [_ZERO] * ncols
        v[free] = Fraction(1)
        for c, prow in pivots.items():
            v[c] = -prow.get(free, _ZERO)
        basis.append(v)
    return basis


def _solve(rows, ncols: int) -> list[Fraction] | None:
    """One exact solution of the augmented system (column ncols holds the
    right-hand side), with free variables at zero; None if inconsistent."""
    pivots = _rref(rows)
    if ncols in pivots:
        return None
    x = [_ZERO] * ncols
    for c, prow in pivots.items():
        x[c] = prow.get(ncols, _ZERO)
    return x


def _by_degree(rank: int, bound) -> dict[HalfInt, list[tuple]]:
    """The keys of the given rank with every factor in `basis_window(bound)`,
    grouped by degree, each block in lexicographic basis order."""
    if rank not in (1, 2, 3):
        raise ValueError("rank must be 1, 2 or 3")
    blocks: dict[HalfInt, list[tuple]] = {}
    for key in itertools.product(basis_window(bound), repeat=rank):
        blocks.setdefault(_key_degree(key), []).append(key)
    return blocks


def _tensor(rank: int, items):
    """The rank-1, 2 or 3 tensor with the given (key, coefficient) items."""
    return _CLASS_OF_RANK[rank]((key[0] if rank == 1 else key, c) for key, c in items if c)


def _action_rows(block: list[tuple], fold=None) -> dict:
    """The diagonal action of the generators on the span of `block`.

    One sparse row per (generator index, output key): its entry at column j
    is the coefficient of that key in g . block[j].  `fold` maps output keys
    to the keys the rows are collected under.
    """
    rows: dict = {}
    for j, key in enumerate(block):
        for gi, g in enumerate(GENERATORS):
            for out_key, c in _act_key(g, key):
                if fold is not None:
                    out_key = fold(out_key)
                _bump(rows.setdefault((gi, out_key), {}), j, c)
    return rows


def _kernel(block: list[tuple], rank: int, fold=None) -> list:
    """Basis of the span of `block` on which every row of `_action_rows`
    vanishes, each vector normalized to leading coefficient 1."""
    out = []
    for v in _nullspace(_rref(_action_rows(block, fold).values()), len(block)):
        t = _tensor(rank, zip(block, v))
        out.append(t * (1 / t.terms()[0][1]))
    return out


def invariant_tensors(rank: int, bound) -> list:
    """Basis of window tensors annihilated by every generator of the algebra.

    Since the five generators generate the whole algebra, the solutions are
    invariant under the full diagonal action.  Returned vectors are
    normalized to leading coefficient 1 and sorted canonically.
    """
    blocks = _by_degree(rank, bound).values()
    return sorted((t for block in blocks for t in _kernel(block, rank)), key=canonical_key)


def _unordered(key: tuple) -> tuple:
    a, b = key
    return key if a.sort_key <= b.sort_key else (b, a)


def skew_action_space(bound) -> list[Tensor2]:
    """Basis of window rank-2 tensors v with g.v skew for every generator.

    The constraint per generator is (1 + twist)(g.v) = 0, expressed on
    unordered output pairs.  Expected to equal the skew tensors of the
    window plus the line through M_0 (x) M_0.
    """
    blocks = _by_degree(2, bound).values()
    return sorted((t for block in blocks for t in _kernel(block, 2, _unordered)),
                  key=canonical_key)
