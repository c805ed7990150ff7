"""Exact linear algebra against independent oracles."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conetri.errors import DimensionError, SingularMatrixError
from conetri.exact_linalg import (
    adjugate,
    determinant,
    invert_unimodular,
    nullspace_mod2,
    smith_normal_form,
)
from conftest import (
    cofactor_adjugate,
    mat_mul,
    mat_vec,
    oracle_smith_normal_form,
    perm_det,
)

entries = st.integers(min_value=-9, max_value=9)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


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
    # The argument is the columns (a cone's generators); column i of d is
    # bit d-1-i of a kernel mask.
    assert nullspace_mod2([(1, 0), (1, 2)]) == [0b11]
    assert nullspace_mod2([(1, 0), (0, 1)]) == []
    assert nullspace_mod2([(2, 0), (0, 1)]) == [0b10]
    assert nullspace_mod2([(2, 0), (0, 2)]) == [0b10, 0b01]
    assert nullspace_mod2([(1, 1, 0), (0, 1, 1), (1, 0, 1)]) == [0b111]
    assert nullspace_mod2([(1, 1), (1, 1)]) == [0b11]


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
    masks = nullspace_mod2(list(zip(*m)))
    basis = [tuple(k >> (3 - i) & 1 for i in range(4)) for k in masks]
    assert len(basis) == 4 - _gf2_rank(m)
    for k in basis:
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


# Diagonal blocks whose Smith form needs the row-fold step: each reduction
# round leaves them diagonal, and (2, 3) or (6, 10, 15) is no divisor
# chain, so only a fold can reach (1, 6) or (1, 30, 30).
FOLDING = [
    [(2, 0), (0, 3)],
    [(6, 0, 0), (0, 10, 0), (0, 0, 15)],
    [(4, 0, 0, 0), (0, 6, 0, 0), (0, 0, 1, 0), (0, 0, 0, 9)],
]


def test_smith_matches_reference_exactly():
    rng = random.Random(20261019)
    cases = [list(m) for m in FOLDING]
    for _ in range(3000):
        d = rng.randint(1, 6)
        bound = rng.choice((3, 10, 1000))
        cases.append([[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)])
    singular = 0
    for m in cases:
        try:
            diag, rmat = oracle_smith_normal_form(m)
        except SingularMatrixError:
            singular += 1
            with pytest.raises(SingularMatrixError):
                smith_normal_form(m)
            continue
        assert smith_normal_form(m) == (diag, tuple(row[-1] for row in rmat)), m
    assert smith_normal_form(FOLDING[0])[0] == (1, 6)
    assert smith_normal_form(FOLDING[1])[0] == (1, 30, 30)
    assert singular


@given(square_matrix(3))
@settings(max_examples=150)
def test_smith_reconstruction(m):
    if perm_det(m) == 0:
        return
    diag, r = smith_normal_form(m)
    assert all(x > 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    prod = 1
    for x in diag:
        prod *= x
    assert prod == abs(perm_det(m))
    # What order_p_element relies on: m @ r is diag[-1] times an integral
    # vector, and r is primitive.
    assert all(x % diag[-1] == 0 for x in mat_vec(m, r))
    assert math.gcd(*r) == 1
    # r is the last column of the oracle's R, and that R reconstructs diag:
    # L @ m @ R = D for a unimodular L  <=>  m @ R = L^-1 @ D, so column j
    # of m @ R is diag[j] times column j of a unimodular matrix.
    want_diag, rmat = oracle_smith_normal_form(m)
    assert want_diag == diag
    assert tuple(row[-1] for row in rmat) == r
    assert abs(perm_det(rmat)) == 1
    mr = mat_mul(m, rmat)
    assert all(row[j] % diag[j] == 0 for row in mr for j in range(3))
    quotients = [[row[j] // diag[j] for j in range(3)] for row in mr]
    assert abs(perm_det(quotients)) == 1


@given(square_matrix(3))
def test_adjugate_identity(m):
    det = perm_det(m)
    if det == 0:
        with pytest.raises(SingularMatrixError):
            adjugate(m)
        return
    prod = mat_mul(adjugate(m), m)
    assert prod == tuple(
        tuple(det if i == j else 0 for j in range(3)) for i in range(3)
    )


def seeded_matrices(rng, n):
    """Random n x n matrices of several kinds: dense, sparse (so pivots
    must be searched for), singular, unimodular, and the reversal
    permutation (its first pivot is 0)."""
    dense = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    sparse = [[rng.choice((0, 0, 0, rng.randint(-5, 5))) for _ in range(n)] for _ in range(n)]
    repeated = [list(row) for row in dense]
    repeated[-1] = list(repeated[0])
    zero_col = [row[:1] + [0] + row[2:] for row in dense]
    # Unimodular: the identity under random row additions and swaps.
    unimodular = [list(row) for row in identity(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.3:
            unimodular[i], unimodular[j] = unimodular[j], unimodular[i]
        else:
            q = rng.randint(-2, 2)
            unimodular[i] = [a + q * b for a, b in zip(unimodular[i], unimodular[j])]
    reversal = [list(row) for row in identity(n)][::-1]
    return [dense, sparse, repeated, zero_col, unimodular, reversal]


@pytest.mark.parametrize("n", range(2, 7))
def test_adjugate_matches_cofactor_oracle(n):
    rng = random.Random(600 + n)
    singular = unimodular = 0
    for _ in range(8):
        for m in seeded_matrices(rng, n):
            det = perm_det(m)
            singular += det == 0
            unimodular += abs(det) == 1
            if det == 0:
                with pytest.raises(SingularMatrixError):
                    adjugate(m)
            else:
                assert adjugate(m) == cofactor_adjugate(m)
    assert singular >= 16 and unimodular >= 16


def test_adjugate_one_by_one():
    assert adjugate([[5]]) == adjugate([[-3]]) == ((1,),)
    with pytest.raises(SingularMatrixError):
        adjugate([[0]])


def test_invert_unimodular():
    m = [(1, 2), (1, 3)]
    inv = invert_unimodular(m)
    assert mat_mul(inv, m) == identity(2)
    with pytest.raises(SingularMatrixError):
        invert_unimodular([(2, 0), (0, 1)])
