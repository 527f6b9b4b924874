import random
from fractions import Fraction as F

import pytest

from svlie import (
    Element,
    L,
    M,
    RationalMatrix,
    Tensor2,
    Tensor3,
    TensorWindowBasis,
    basis_window,
    invariant_tensors,
    is_skew,
    skew_action_space,
    strip_central_square,
    wedge,
)

from svlie.algebra import GENERATORS, _bump, bracket_basis
from svlie.linalg import _action_rows, _by_degree, _unordered

from gen import rand_tensor2


def dense_rref(mat):
    """Textbook reduced row echelon form, used as the reference oracle."""
    mat = [row[:] for row in mat]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = F(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == nrows:
            break
    return mat


def reference_nullspace(mat):
    ncols = len(mat[0])
    ref = dense_rref(mat)
    pivots = {}
    for row in ref:
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is not None:
            pivots[lead] = row
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [F(0)] * ncols
        v[free] = F(1)
        for c, row in pivots.items():
            v[c] = -row[free]
        basis.append(v)
    return basis


def test_nullspace_examples():
    assert RationalMatrix.from_dense([[1, 2], [2, 4]]).nullspace() == [[F(-2), F(1)]]
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert RationalMatrix.from_dense(eye).nullspace() == []
    zero = RationalMatrix.from_dense([[0, 0, 0], [0, 0, 0]])
    assert zero.nullspace() == [
        [F(1), F(0), F(0)],
        [F(0), F(1), F(0)],
        [F(0), F(0), F(1)],
    ]


def test_nullspace_matches_reference_on_random_matrices():
    rng = random.Random(99)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        grid = [[F(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        mat = RationalMatrix.from_dense(grid)
        got = mat.nullspace()
        assert got == reference_nullspace(grid)
        for v in got:
            assert all(s == 0 for s in mat.multiply(v))


def test_solve_consistent_and_inconsistent():
    mat = RationalMatrix.from_dense([[2, 0], [0, 3]])
    assert mat.solve([4, 9]) == [F(2), F(3)]
    dep = RationalMatrix.from_dense([[1, 2], [2, 4]])
    assert dep.solve([1, 3]) is None
    sol = dep.solve([1, 2])
    assert sol is not None and sol[0] + 2 * sol[1] == 1


def test_rational_matrix_is_exact_at_its_constructor():
    def exact(vectors):
        return all(type(c) is F for v in vectors for c in v)

    null = RationalMatrix(1, 2, [{0: 2, 1: 1}]).nullspace()
    assert null == [[F(-1, 2), F(1)]] and exact(null)
    sol = RationalMatrix(1, 2, [{0: 3, 1: 1}]).solve([1])
    assert sol == [F(1, 3), F(0)] and exact([sol])
    with pytest.raises(TypeError):
        RationalMatrix(1, 2, [{0: 0.5}])
    # a stored zero is no pivot
    assert RationalMatrix(2, 2, [{0: 0, 1: 1}, {}]).nullspace() == [[F(1), F(0)]]
    # a short column is zero below its entries; a long one has no rows to go to
    assert RationalMatrix.from_columns([[1], [2, 3]], 2).rows == [{0: 1, 1: 2}, {1: 3}]
    with pytest.raises(ValueError):
        RationalMatrix.from_columns([[1, 2, 3]], 2)


def test_solve_random_residual():
    rng = random.Random(5)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        grid = [[F(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        xstar = [F(rng.randint(-3, 3)) for _ in range(ncols)]
        mat = RationalMatrix.from_dense(grid)
        rhs = mat.multiply(xstar)
        sol = mat.solve(rhs)
        assert sol is not None
        assert mat.multiply(sol) == rhs


def test_tensor_window_basis_round_trip():
    win = TensorWindowBasis(2, 1)
    assert len(win) == len(basis_window(1)) ** 2
    rng = random.Random(3)
    for _ in range(10):
        t = rand_tensor2(rng, 1)
        assert win.from_coords(win.coords(t)) == t
    with pytest.raises(ValueError):
        win.coords(Tensor2([((L(5), L(0)), 1)]))
    win1 = TensorWindowBasis(1, 2)
    e = Element([(L(1), F(2)), (M(-2), F(-1, 3))])
    assert win1.from_coords(win1.coords(e)) == e


M0M0 = Tensor2([((M(0), M(0)), 1)])


def test_invariant_tensors_rank_1():
    assert invariant_tensors(1, 3) == [Element.basis(M(0))]


@pytest.mark.parametrize("bound", [0, 1, 2])
def test_invariant_tensors_rank_2_all_windows(bound):
    assert invariant_tensors(2, bound) == [M0M0]


def test_invariant_tensors_rank_3():
    assert invariant_tensors(3, 1) == [Tensor3([((M(0), M(0), M(0)), 1)])]


def in_span(t, basis_list):
    if not basis_list:
        return t.is_zero
    support = sorted({k for v in basis_list for k in v._terms}, key=Tensor2._sort_key)
    pos = {k: i for i, k in enumerate(support)}
    cols = []
    for v in basis_list:
        col = [F(0)] * len(support)
        for k, c in v._terms.items():
            col[pos[k]] = c
        cols.append(col)
    rhs = [F(0)] * len(support)
    for k, c in t._terms.items():
        if k not in pos:
            return False
        rhs[pos[k]] = c
    return RationalMatrix.from_columns(cols, len(support)).solve(rhs) is not None


@pytest.mark.parametrize("bound", [0, 1])
def test_skew_action_space_structure(bound):
    got = skew_action_space(bound)
    n = len(basis_window(bound))
    skew_dim = n * (n - 1) // 2
    assert len(got) == skew_dim + 1
    for t in got:
        assert is_skew(strip_central_square(t))
    assert in_span(M0M0, got)
    assert in_span(wedge(L(0), M(0)), got)


def test_skew_window_inside_solution_space():
    got = skew_action_space(1)
    vs = basis_window(1)
    for i, u in enumerate(vs):
        for w in vs[i + 1:]:
            assert in_span(wedge(u, w), got)


# Reference copy of the row builder before it shared the tensor layer's
# key-level action.

def reference_act_key(g, key):
    out = []
    for pos, bv in enumerate(key):
        hit = bracket_basis(g, bv)
        if hit is not None:
            out.append((key[:pos] + (hit[1],) + key[pos + 1:], hit[0]))
    return out


def reference_action_rows(block, fold=None):
    rows = {}
    for j, key in enumerate(block):
        for gi, g in enumerate(GENERATORS):
            for out_key, c in reference_act_key(g, key):
                if fold is not None:
                    out_key = fold(out_key)
                _bump(rows.setdefault((gi, out_key), {}), j, c)
    return rows


@pytest.mark.parametrize("rank", [2, 3])
def test_action_rows_match_reference(rank):
    blocks = _by_degree(TensorWindowBasis(rank, 1).keys).values()
    folds = [None, _unordered] if rank == 2 else [None]
    for block in blocks:
        for fold in folds:
            got = _action_rows(block, fold)
            want = reference_action_rows(block, fold)
            assert list(got.items()) == list(want.items())
