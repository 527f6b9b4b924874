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

from .algebra import GENERATORS, HalfInt, _as_frac, _bump, basis_window
from .tensors import _CLASS_OF_RANK, Tensor2, _act_key, _key_degree, canonical_key

_ZERO = Fraction(0)


def _rref(rows) -> dict[int, dict[int, Fraction]]:
    """Reduce sparse rows to reduced row echelon form.

    Returns pivot column -> its fully reduced row (pivot entry 1).  Rows are
    dicts column -> Fraction; the input rows are not mutated.
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


class RationalMatrix:
    """Exact matrix with sparse rows of {column: Fraction}."""

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            rows = [{} for _ in range(nrows)]
        # exact nonzero entries only: no float enters the elimination and no
        # stored zero becomes a pivot
        self.rows = [{j: f for j, v in r.items() if (f := _as_frac(v))} for r in rows]
        if len(self.rows) != nrows:
            raise ValueError("row count mismatch")

    @classmethod
    def from_dense(cls, grid) -> "RationalMatrix":
        rows = []
        width = len(grid[0]) if grid else 0
        for r in grid:
            if len(r) != width:
                raise ValueError("ragged matrix")
            rows.append(dict(enumerate(r)))
        return cls(len(grid), width, rows)

    @classmethod
    def from_columns(cls, cols: list[list[Fraction]], nrows: int) -> "RationalMatrix":
        """Columns shorter than `nrows` are zero below their last entry."""
        rows: list[dict] = [{} for _ in range(nrows)]
        for j, col in enumerate(cols):
            if len(col) > nrows:
                raise ValueError(f"column {j} has {len(col)} entries, more than {nrows} rows")
            for i, v in enumerate(col):
                rows[i][j] = v
        return cls(nrows, len(cols), rows)

    def nullspace(self) -> list[list[Fraction]]:
        """Basis of the kernel, one vector per free column, in canonical
        reduced-echelon form (unit entry at the free column)."""
        return _nullspace(_rref(self.rows), self.ncols)

    def solve(self, rhs) -> list[Fraction] | None:
        """A solution of Ax = b with free variables at zero, or None."""
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side length mismatch")
        aug = []
        for row, b in zip(self.rows, rhs):
            b = _as_frac(b)
            r = dict(row)
            if b:
                r[self.ncols] = b
            aug.append(r)
        return _solve(aug, self.ncols)

    def multiply(self, x) -> list[Fraction]:
        return [sum((v * x[j] for j, v in row.items()), _ZERO) for row in self.rows]


class TensorWindowBasis:
    """Ordered basis of rank-n elementary tensors with all factor indices
    bounded by N, lexicographic in the basis-vector order."""

    def __init__(self, rank: int, bound):
        if rank not in (1, 2, 3):
            raise ValueError("rank must be 1, 2 or 3")
        self.rank = rank
        self.bound = HalfInt.of(bound)
        vs = basis_window(self.bound)
        self.keys = list(itertools.product(vs, repeat=rank))
        self.position = {k: i for i, k in enumerate(self.keys)}

    def __len__(self) -> int:
        return len(self.keys)

    def coords(self, t) -> list[Fraction]:
        out = [_ZERO] * len(self.keys)
        for key, c in t._terms.items():
            if self.rank == 1:
                key = (key,)
            pos = self.position.get(key)
            if pos is None:
                raise ValueError(f"support of {t} leaves the window {self.bound}")
            out[pos] = c
        return out

    def from_coords(self, coords):
        return _tensor(self.rank, zip(self.keys, coords))


def _by_degree(keys) -> dict[HalfInt, list[tuple]]:
    blocks: dict[HalfInt, list[tuple]] = {}
    for key in keys:
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
    blocks = _by_degree(TensorWindowBasis(rank, bound).keys).values()
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
    blocks = _by_degree(TensorWindowBasis(2, bound).keys).values()
    return sorted((t for block in blocks for t in _kernel(block, 2, _unordered)),
                  key=canonical_key)
