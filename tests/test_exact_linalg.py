"""Exact linear algebra against independent oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conetri.errors import DimensionError, SingularMatrixError
from conetri.exact_linalg import (
    adjugate,
    determinant,
    identity,
    invert_unimodular,
    nullspace_mod2,
    smith_normal_form,
)
from conftest import mat_mul, mat_vec, perm_det

entries = st.integers(min_value=-9, max_value=9)


def square_matrix(n):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    )


def test_determinant_examples():
    assert determinant([(1, 0), (0, 1)]) == 1
    assert determinant([(1, 0), (1, 2)]) == 2
    assert determinant([(1, 0), (1, 3)]) == 3
    assert determinant([(2, 0), (0, 3)]) == 6
    assert determinant([(5,)]) == 5
    assert determinant([(1, 2), (2, 4)]) == 0


def test_determinant_rejects_nonsquare():
    with pytest.raises(DimensionError):
        determinant([(1, 2, 3), (4, 5, 6)])


@given(square_matrix(3))
def test_determinant_matches_permanent_expansion_3x3(m):
    assert determinant(m) == perm_det(m)


@given(square_matrix(4))
@settings(max_examples=60)
def test_determinant_matches_permanent_expansion_4x4(m):
    assert determinant(m) == perm_det(m)


def test_nullspace_examples():
    # Generator matrices have generators as columns.
    assert nullspace_mod2([(1, 1), (0, 2)]) == [(1, 1)]
    assert nullspace_mod2([(1, 0), (0, 1)]) == []
    assert nullspace_mod2([(2, 0), (0, 1)]) == [(1, 0)]
    assert nullspace_mod2([(2, 0), (0, 2)]) == [(1, 0), (0, 1)]


def _gf2_rank(m):
    rows = len(m)
    a = [[x & 1 for x in row] for row in m]
    rank = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(rank, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(rows):
            if i != rank and a[i][c]:
                a[i] = [x ^ y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


@given(square_matrix(4))
def test_nullspace_kernel_and_size(m):
    basis = nullspace_mod2(m)
    assert len(basis) == 4 - _gf2_rank(m)
    for k in basis:
        assert set(k) <= {0, 1}
        assert any(k)
        for coord in mat_vec(m, k):
            assert coord % 2 == 0
    if basis:
        assert _gf2_rank(basis) == len(basis)


def test_smith_examples():
    assert smith_normal_form([(1, 0), (0, 1)])[0] == (1, 1)
    assert smith_normal_form([(1, 0), (1, 3)])[0] == (1, 3)
    assert smith_normal_form([(2, 0), (0, 2)])[0] == (2, 2)
    assert smith_normal_form([(1, 1), (0, 5)])[0] == (1, 5)


def test_smith_singular_raises():
    with pytest.raises(SingularMatrixError):
        smith_normal_form([(1, 2), (2, 4)])


@given(square_matrix(3))
@settings(max_examples=150)
def test_smith_reconstruction(m):
    if perm_det(m) == 0:
        return
    diag, rmat = smith_normal_form(m)
    assert all(x > 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    prod = 1
    for x in diag:
        prod *= x
    assert prod == abs(perm_det(m))
    assert abs(perm_det(rmat)) == 1
    # L @ m @ R = D for a unimodular L  <=>  m @ R = L^-1 @ D: column j of
    # m @ R is diag[j] times column j of a unimodular matrix.
    mr = mat_mul(m, rmat)
    assert all(row[j] % diag[j] == 0 for row in mr for j in range(3))
    quotients = [[row[j] // diag[j] for j in range(3)] for row in mr]
    assert abs(perm_det(quotients)) == 1


@given(square_matrix(3))
def test_adjugate_identity(m):
    det = perm_det(m)
    prod = mat_mul(adjugate(m), m)
    assert prod == tuple(
        tuple(det if i == j else 0 for j in range(3)) for i in range(3)
    )


def test_invert_unimodular():
    m = [(1, 2), (1, 3)]
    inv = invert_unimodular(m)
    assert mat_mul(inv, m) == identity(2)
    with pytest.raises(SingularMatrixError):
        invert_unimodular([(2, 0), (0, 1)])
