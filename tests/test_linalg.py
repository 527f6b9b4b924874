import random
from fractions import Fraction as F

import pytest

import svlie
from svlie import (
    Element,
    L,
    M,
    Tensor2,
    Tensor3,
    basis_window,
    invariant_tensors,
    is_skew,
    skew_action_space,
    strip_central_square,
    wedge,
)

from svlie.algebra import GENERATORS, _bump, bracket_basis
from svlie.linalg import _action_rows, _by_degree, _nullspace, _rref, _solve, _unordered

from gen import in_span, multiply, nullspace, solve, sparse_rows


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
    assert nullspace(sparse_rows([[1, 2], [2, 4]]), 2) == [[F(-2), F(1)]]
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace(sparse_rows(eye), 3) == []
    assert nullspace(sparse_rows([[0, 0, 0], [0, 0, 0]]), 3) == [
        [F(1), F(0), F(0)],
        [F(0), F(1), F(0)],
        [F(0), F(0), F(1)],
    ]


def test_nullspace_matches_reference_on_random_matrices():
    rng = random.Random(99)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        grid = [[F(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        rows = sparse_rows(grid)
        got = nullspace(rows, ncols)
        assert got == reference_nullspace(grid)
        for v in got:
            assert all(s == 0 for s in multiply(rows, v))


def test_solve_consistent_and_inconsistent():
    diag = sparse_rows([[2, 0], [0, 3]])
    assert solve(diag, 2, [4, 9]) == [F(2), F(3)]
    dep = sparse_rows([[1, 2], [2, 4]])
    assert solve(dep, 2, [1, 3]) is None
    sol = solve(dep, 2, [1, 2])
    assert sol is not None and sol[0] + 2 * sol[1] == 1


def test_kernel_is_exact_and_leaves_its_rows_unmutated():
    def exact(vectors):
        return all(type(c) is F for v in vectors for c in v)

    rows = sparse_rows([[2, 1], [4, 2]])
    aug = sparse_rows([[3, 1, 1]])
    before = [dict(r) for r in rows + aug]
    null = _nullspace(_rref(rows), 2)
    assert null == [[F(-1, 2), F(1)]] and exact(null)
    sol = _solve(aug, 2)
    assert sol == [F(1, 3), F(0)] and exact([sol])
    assert rows + aug == before
    # sparse rows hold no zero, so none becomes a pivot
    assert nullspace(sparse_rows([[0, 1], [0, 0]]), 2) == [[F(1), F(0)]]
    # the kernel is the one elimination route: no matrix class is public
    assert not hasattr(svlie, "RationalMatrix")


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_action_rows_meet_the_kernel_contract(rank):
    # _rref takes rows of nonzero Fractions only
    folds = [None, _unordered] if rank == 2 else [None]
    for block in _by_degree(rank, 1).values():
        for fold in folds:
            for row in _action_rows(block, fold).values():
                assert all(type(c) is F and c for c in row.values())


def test_solve_random_residual():
    rng = random.Random(5)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        grid = [[F(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        xstar = [F(rng.randint(-3, 3)) for _ in range(ncols)]
        rows = sparse_rows(grid)
        rhs = multiply(rows, xstar)
        sol = solve(rows, ncols, rhs)
        assert sol is not None
        assert multiply(rows, sol) == rhs


M0M0 = Tensor2([((M(0), M(0)), 1)])


def test_invariant_tensors_rank_1():
    assert invariant_tensors(1, 3) == [Element.basis(M(0))]


@pytest.mark.parametrize("bound", [0, 1, 2])
def test_invariant_tensors_rank_2_all_windows(bound):
    assert invariant_tensors(2, bound) == [M0M0]


def test_invariant_tensors_rank_3():
    assert invariant_tensors(3, 1) == [Tensor3([((M(0), M(0), M(0)), 1)])]
    with pytest.raises(ValueError, match="rank must be 1, 2 or 3"):
        invariant_tensors(4, 1)


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
    blocks = _by_degree(rank, 1).values()
    folds = [None, _unordered] if rank == 2 else [None]
    for block in blocks:
        for fold in folds:
            got = _action_rows(block, fold)
            want = reference_action_rows(block, fold)
            assert list(got.items()) == list(want.items())
