"""Exact linear algebra against naive reimplementations."""

import random

import pytest

from umconv.galois import field_for_order
from umconv.linalg import (
    FieldMismatch,
    FMatrix,
    IndexOutOfRange,
    nullspace,
    rank,
    rref,
)
from oracles import columns_independent, solve_on_support

F2 = field_for_order(2)
F3 = field_for_order(3)
F8 = field_for_order(8)
F9 = field_for_order(9)
F257 = field_for_order(257)


def _random_matrix(rng, f, rows, cols):
    return FMatrix(f, [[rng.randrange(f.q) for _ in range(cols)] for _ in range(rows)])


def _naive_rank(f, mat):
    rows = [list(mat.row(r)) for r in range(mat.rows)]
    r = 0
    for c in range(mat.cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                coef = rows[i][c]
                rows[i] = [
                    f.sub(x, f.mul(coef, y)) for x, y in zip(rows[i], rows[r])
                ]
        r += 1
    return r


def test_constructors_and_access():
    m = FMatrix(F3, [[1, 2, 0], [0, 1, 1]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.row(1) == (0, 1, 1)
    assert m.column(1) == (2, 1)
    assert m[1, 2] == 1
    assert m.to_lists() == [[1, 2, 0], [0, 1, 1]]
    assert FMatrix.zero(F3, 2, 2).is_zero()
    assert any(m.row(0))
    assert not any(FMatrix.zero(F3, 1, 3).row(0))
    with pytest.raises(IndexOutOfRange):
        m.row(2)
    with pytest.raises(IndexOutOfRange):
        m[0, 3]
    with pytest.raises(ValueError):
        FMatrix(F3, [[1, 2], [3]])
    with pytest.raises(ValueError):
        FMatrix(F3, [[5]])


def test_field_mismatch():
    a = FMatrix(F2, [[1]])
    b = FMatrix(F3, [[1]])
    with pytest.raises(FieldMismatch):
        a.vstack(b)


def test_take_and_stack():
    m = FMatrix(F3, [[0, 1, 2], [1, 0, 1], [2, 2, 0]])
    assert m.take_rows((2, 0)).to_lists() == [[2, 2, 0], [0, 1, 2]]
    assert m.take_cols((1,)).to_lists() == [[1], [0], [2]]
    top = m.take_rows(range(1))
    assert top.vstack(m.take_rows(range(1, 3))) == m


def test_matmul_matvec_naive():
    rng = random.Random(3)
    for _ in range(30):
        f = rng.choice((F2, F3, F8))
        a = _random_matrix(rng, f, rng.randint(1, 4), rng.randint(1, 4))
        v = tuple(rng.randrange(f.q) for _ in range(a.cols))
        got = a.matvec(v)
        for i in range(a.rows):
            want = 0
            for t in range(a.cols):
                want = f.add(want, f.mul(a[i, t], v[t]))
            assert got[i] == want


def test_rref_canonical_form():
    # GF(9) is an odd-characteristic extension; GF(257) is above the lookup
    # table limit, so rref reads on-demand stand-ins there.
    rng = random.Random(17)
    for _ in range(100):
        f = rng.choice((F2, F3, F8, F9, F257))
        mat = _random_matrix(rng, f, rng.randint(1, 5), rng.randint(1, 5))
        reduced, r, pivots = rref(mat)
        assert r == len(pivots) == _naive_rank(f, mat)
        assert rank(mat) == r
        assert list(pivots) == sorted(pivots)
        for i, c in enumerate(pivots):
            assert reduced[i, c] == 1
            for other in range(reduced.rows):
                if other != i:
                    assert reduced[other, c] == 0
        for i in range(r, reduced.rows):
            assert not any(reduced.row(i))
        # Row space is preserved.
        stacked = mat.vstack(reduced)
        assert rank(stacked) == r
        # Idempotence makes the form canonical.
        again, r2, p2 = rref(reduced)
        assert (again, r2, p2) == (reduced, r, pivots)


def test_nullspace_properties():
    rng = random.Random(23)
    for _ in range(60):
        f = rng.choice((F2, F3, F8))
        mat = _random_matrix(rng, f, rng.randint(1, 4), rng.randint(1, 5))
        basis = nullspace(mat)
        assert len(basis) == mat.cols - rank(mat)
        for v in basis:
            assert all(x == 0 for x in mat.matvec(v))
        if basis:
            as_rows = FMatrix(f, [list(v) for v in basis])
            assert rank(as_rows) == len(basis)


def test_nullspace_exhaustive_small():
    # Every kernel vector of a fixed F2 matrix is spanned by the basis.
    mat = FMatrix(F2, [[1, 1, 0, 1], [0, 1, 1, 1]])
    basis = nullspace(mat)
    kernel = set()
    for enc in range(2**4):
        v = tuple((enc >> i) & 1 for i in range(4))
        if all(x == 0 for x in mat.matvec(v)):
            kernel.add(v)
    spanned = set()
    for a in range(2):
        for b in range(2):
            vec = tuple(
                F2.add(F2.mul(a, basis[0][i]), F2.mul(b, basis[1][i]))
                for i in range(4)
            )
            spanned.add(vec)
    assert len(basis) == 2
    assert spanned == kernel


def test_columns_independent():
    mat = FMatrix(F3, [[1, 2, 0, 2], [0, 0, 1, 1]])
    assert columns_independent(mat, (0, 2))
    assert not columns_independent(mat, (0, 1))
    assert columns_independent(mat, ())
    with pytest.raises(ValueError):
        columns_independent(mat, (1, 1))


def test_solve_on_support():
    mat = FMatrix(F3, [[1, 1, 1, 0], [0, 1, 2, 1]])
    v = solve_on_support(mat, (0, 1, 2))
    assert v is not None
    assert all(x == 0 for x in mat.matvec(v))
    assert v[3] == 0
    # Column 0 and 3 alone admit no kernel vector.
    assert solve_on_support(mat, (0, 3)) is None
    assert solve_on_support(mat, ()) is None
    # Block restriction: kernel vectors of [I | I] must touch both halves,
    # so demanding support inside the second half alone fails.
    eye2 = FMatrix(F3, [[1, 0, 1, 0], [0, 1, 0, 1]])
    assert solve_on_support(eye2, (2, 3), require_nonzero_block=(0, 2)) is None
    hit = solve_on_support(eye2, (0, 2), require_nonzero_block=(0, 2))
    assert hit is not None and hit[0] != 0


def test_empty_edge_cases():
    empty = FMatrix(F2, [])
    assert (empty.rows, empty.cols) == (0, 0)
    assert rank(empty) == 0
    zero = FMatrix.zero(F3, 2, 3)
    reduced, r, pivots = rref(zero)
    assert (r, pivots) == (0, ())
    assert len(nullspace(zero)) == 3
