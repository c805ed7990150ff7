"""Exact linear algebra on small dense integer matrices.

Everything here runs on arbitrary-precision Python integers; no floating
point is used anywhere in this module. Matrices are sequences of rows;
results are returned as immutable tuples. The determinant is computed
fraction-free (Bareiss), so intermediate values stay integral even though
naive elimination would produce rationals.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionError, SingularMatrixError

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


def _as_rows(m: Sequence[Sequence[int]]) -> list[list[int]]:
    rows = [list(r) for r in m]
    if not rows:
        raise DimensionError("empty matrix")
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise DimensionError("ragged or empty rows")
    return rows


def _require_square(rows: list[list[int]]) -> int:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError(f"expected a square matrix, got {n}x{len(rows[0])}")
    return n


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def determinant(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, computed fraction-free.

    Bareiss elimination: every intermediate entry is itself a minor of the
    input, so the divisions below are exact and everything stays an int.

    Args:
        m: square matrix as a sequence of rows of ints.

    Returns:
        The exact determinant.

    Raises:
        DimensionError: if `m` is not square.
    """
    a = _as_rows(m)
    n = _require_square(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Adjugate matrix: adjugate(m) @ m == determinant(m) * identity.

    Computed from cofactors; exact for any square integer matrix, including
    singular ones.
    """
    a = _as_rows(m)
    n = _require_square(a)
    if n == 1:
        return ((1,),)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [a[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = determinant(minor)
            if (i + j) % 2:
                cof = -cof
            adj[j][i] = cof
    return tuple(tuple(row) for row in adj)


def invert_unimodular(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Exact integer inverse of a matrix with determinant +1 or -1."""
    det = determinant(m)
    if det not in (1, -1):
        raise SingularMatrixError(f"determinant {det}, expected +1 or -1")
    adj = adjugate(m)
    if det == 1:
        return adj
    return tuple(tuple(-x for x in row) for row in adj)


def nullspace_mod2(m: Sequence[Sequence[int]]) -> list[IntVector]:
    """Basis of the kernel of a square matrix over GF(2).

    Returns 0/1 vectors k with m @ k even in every coordinate. The basis is
    deterministic: one vector per free column, free columns in increasing
    order, each with a 1 in its own free position.
    """
    rows = _as_rows(m)
    n = _require_square(rows)
    # Rows packed as bitmasks (bit c = column c): row xor is one int op.
    a = [
        sum(1 << c for c, x in enumerate(row) if x & 1)
        for row in rows
    ]
    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        bit = 1 << c
        pivot_row = next((i for i in range(r, n) if a[i] & bit), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        ar = a[r]
        for i in range(n):
            if i != r and a[i] & bit:
                a[i] ^= ar
        pivot_cols.append(c)
        r += 1
    pivot_set = set(pivot_cols)
    basis: list[IntVector] = []
    for f in range(n):
        if f in pivot_set:
            continue
        k = [0] * n
        k[f] = 1
        fbit = 1 << f
        for row_idx, pc in enumerate(pivot_cols):
            k[pc] = 1 if a[row_idx] & fbit else 0
        basis.append(tuple(k))
    return basis


def smith_normal_form(
    m: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], IntMatrix]:
    """Smith normal form of a nonsingular square integer matrix.

    Returns (diag, R): there is a unimodular L with L @ m @ R = diag(diag),
    R is unimodular, every diagonal entry is positive, and diag[i] divides
    diag[i+1]. The row operations that make up L are applied to m but not
    recorded.

    Pivot choice is deterministic: the entry of smallest nonzero absolute
    value in the remaining block, scanning rows first, then columns.

    Raises:
        DimensionError: if `m` is not square.
        SingularMatrixError: if `m` is singular.
    """
    a = _as_rows(m)
    n = _require_square(a)
    rmat = [list(row) for row in identity(n)]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in rmat:
            row[i], row[j] = row[j], row[i]

    def col_sub(j: int, k: int, q: int) -> None:
        for row in a:
            row[j] -= q * row[k]
        for row in rmat:
            row[j] -= q * row[k]

    for k in range(n):
        while True:
            best: tuple[int, int] | None = None
            best_val = 0
            for i in range(k, n):
                for j in range(k, n):
                    v = abs(a[i][j])
                    if v and (best is None or v < best_val):
                        best = (i, j)
                        best_val = v
            if best is None:
                raise SingularMatrixError("matrix has rank below its size")
            bi, bj = best
            if bi != k:
                a[bi], a[k] = a[k], a[bi]
            if bj != k:
                swap_cols(bj, k)
            if a[k][k] < 0:
                a[k] = [-x for x in a[k]]
            dirty = False
            for i in range(k + 1, n):
                if a[i][k]:
                    q = a[i][k] // a[k][k]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                    if a[i][k]:
                        dirty = True
            for j in range(k + 1, n):
                if a[k][j]:
                    q = a[k][j] // a[k][k]
                    if q:
                        col_sub(j, k, q)
                    if a[k][j]:
                        dirty = True
            if dirty:
                continue
            viol = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if a[i][j] % a[k][k]:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is None:
                break
            # Fold the offending row into row k; the next elimination round
            # shrinks the pivot, so this terminates.
            a[k] = [x + y for x, y in zip(a[k], a[viol])]
    diag = tuple(a[i][i] for i in range(n))
    return diag, tuple(tuple(row) for row in rmat)
