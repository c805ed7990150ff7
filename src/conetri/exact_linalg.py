"""Exact linear algebra on small dense integer matrices.

Everything here runs on arbitrary-precision Python integers; no floating
point is used anywhere in this module. Matrices are sequences of rows;
results are returned as immutable tuples. Beyond 4 x 4 the determinant is
computed fraction-free (Bareiss), so intermediate values stay integral even
though naive elimination would produce rationals.
"""

from __future__ import annotations

from operator import sub
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
    """Size of a matrix from _as_rows, whose rows all have one width."""
    n = len(rows)
    if len(rows[0]) != n:
        raise DimensionError(f"expected a square matrix, got {n}x{len(rows[0])}")
    return n


def determinant(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, computed fraction-free.

    Written out for n <= 4, where it costs a few multiplications, and the
    unpacking of the rows checks the shape. Beyond, Bareiss elimination:
    every intermediate entry is itself a minor of the input, so the
    divisions below are exact and everything stays an int.

    Args:
        m: square matrix as a sequence of rows of ints.

    Returns:
        The exact determinant.

    Raises:
        DimensionError: if `m` is not square.
    """
    n = len(m)
    try:
        if n == 2:
            (a0, a1), (b0, b1) = m
            return a0 * b1 - a1 * b0
        if n == 3:
            (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = m
            return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
        if n == 4:
            # Laplace expansion by the 2 x 2 minors of the first two rows.
            (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (e0, e1, e2, e3) = m
            return (
                (a0 * b1 - a1 * b0) * (c2 * e3 - c3 * e2)
                - (a0 * b2 - a2 * b0) * (c1 * e3 - c3 * e1)
                + (a0 * b3 - a3 * b0) * (c1 * e2 - c2 * e1)
                + (a1 * b2 - a2 * b1) * (c0 * e3 - c3 * e0)
                - (a1 * b3 - a3 * b1) * (c0 * e2 - c2 * e0)
                + (a2 * b3 - a3 * b2) * (c0 * e1 - c1 * e0)
            )
    except ValueError:
        raise DimensionError(f"expected a square {n}x{n} matrix") from None
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

    Bareiss's fraction-free Gauss-Jordan elimination on [m | I]. Step k
    clears column k in every other row, dividing by the previous pivot.
    After step k every entry is, up to sign, a minor of [m | I] with k + 1
    rows, so the divisions are exact. At the end the left block is p * I
    and the right block is E with E @ m == p * I, where p == sign * det(m)
    and sign is the parity of the row swaps; so E == sign * adjugate(m).
    A singular m leaves a column with no pivot and raises
    SingularMatrixError; every caller passes a cone's nonsingular matrix.
    """
    a = _as_rows(m)
    n = _require_square(a)
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    sign = 1
    prev = 1
    for k in range(n):
        if rows[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if pivot_row is None:
                raise SingularMatrixError("matrix has rank below its size")
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        rk = rows[k]
        pivot = rk[k]
        for i in range(n):
            if i != k:
                ri = rows[i]
                f = ri[k]
                rows[i] = [(pivot * x - f * y) // prev for x, y in zip(ri, rk)]
        prev = pivot
    return tuple(tuple([sign * x for x in row[n:]]) for row in rows)


def invert_unimodular(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Exact integer inverse of a matrix with determinant +1 or -1."""
    det = determinant(m)
    if det not in (1, -1):
        raise SingularMatrixError(f"determinant {det}, expected +1 or -1")
    adj = adjugate(m)
    if det == 1:
        return adj
    return tuple(tuple(-x for x in row) for row in adj)


def nullspace_mod2(columns: Sequence[Sequence[int]]) -> list[int]:
    """Basis of the kernel over GF(2) of the matrix with these columns.

    Unlike the rest of this module, the argument is a sequence of columns
    (a cone's generators), not of rows. Kernel elements are bitmasks:
    column i is bit d-1-i of a mask, for d columns, so the indicator
    (k_0, ..., k_{d-1}) read as a binary numeral is the mask, and the
    columns a mask selects sum to a vector that is even in every coordinate.

    Each column's parity vector is packed into an int and reduced against
    the pivots found so far, while its mask records which columns the
    reduced vector combines; one that reduces to 0 is a kernel element.
    The pivots are the greedy independent set of columns, and a pivot mask
    holds bits of pivot columns only, so the basis is deterministic: one
    mask per free column (one that depends on the columns before it), free
    columns in increasing order, each made of its own column plus earlier
    pivot columns. Only one kernel element has such a support, so this is
    the reduced echelon basis of Gauss-Jordan elimination.
    """
    d = len(columns)
    pivots: dict[int, tuple[int, int]] = {}  # leading bit -> (parity, mask)
    kernel: list[int] = []
    for i, col in enumerate(columns):
        parity = 0
        for c in col:
            parity = parity << 1 | (c & 1)
        mask = 1 << (d - 1 - i)
        while parity:
            lead = parity.bit_length()
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = (parity, mask)
                break
            parity ^= pivot[0]
            mask ^= pivot[1]
        else:
            kernel.append(mask)
    return kernel


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[IntVector, IntVector]:
    """Smith normal form of a nonsingular square integer matrix.

    Returns (diag, r): there are unimodular L and R with
    L @ m @ R = diag(diag), every diagonal entry is positive, diag[i]
    divides diag[i+1], and r is R's last column. Neither L nor R is built:
    row operations act on m alone, and column operations are recorded.

    Pivot choice is deterministic: the entry of smallest nonzero absolute
    value in the remaining block, scanning rows first, then columns. Step k
    moves it to (k, k), makes it positive, and floor-divides by it: row
    operations reduce column k below it, column operations row k right of
    it. While a remainder is left, the step picks a new pivot and repeats.
    Once both are zero, if some entry of the remaining block is not a
    multiple of the pivot, the first row holding one is added to row k and
    the step goes on; otherwise the pivot is diag[k].

    Rows and columns before k are zero off the diagonal by then, so step k
    works on the block of rows and columns k.. alone. A column operation
    changes only the rows whose column-k entry is nonzero: row k, and the
    rows the row step left a remainder in. The last step, on the 2 x 2
    block, takes these same steps on four ints; a 1 x 1 matrix is its entry,
    made positive.

    R = E_1 @ ... @ E_m over the column operations in order, so r is
    E_1 @ (... (E_m @ e_{n-1})): the record is replayed in reverse. A swap
    of columns k and t swaps v[k] and v[t]; column t -= q * column k is
    I - q * e_k e_t^T, which does v[k] -= q * v[t].

    Raises:
        DimensionError: if `m` is not square.
        SingularMatrixError: if `m` is singular.
    """
    a = _as_rows(m)
    n = _require_square(a)
    ops: list[tuple[int, int, int]] = []  # (k, t, q); q == 0 is a swap
    diag = []
    for k in range(n - 2):
        # a is the w x w block of rows and columns k.. still to reduce; its
        # (i, j) entry sits at (k + i, k + j).
        w = n - k
        while True:
            best_val = 0
            for i in range(w):
                row = a[i]
                for j in range(w):
                    v = row[j]
                    if v:
                        if v < 0:
                            v = -v
                        if v < best_val or not best_val:
                            best_val, bi, bj = v, i, j
                if best_val == 1:
                    # No later entry can be smaller.
                    break
            if not best_val:
                raise SingularMatrixError("matrix has rank below its size")
            if bi:
                a[bi], a[0] = a[0], a[bi]
            if bj:
                for row in a:
                    row[bj], row[0] = row[0], row[bj]
                ops.append((k, k + bj, 0))
            r0 = a[0]
            if r0[0] < 0:
                a[0] = r0 = [-x for x in r0]
            pivot = r0[0]
            # Row step; rest collects the rows it leaves a remainder in.
            rest = []
            for i in range(1, w):
                ri = a[i]
                if ri[0]:
                    q = ri[0] // pivot
                    if q:
                        a[i] = ri = list(map(sub, ri, map(q.__mul__, r0)))
                    if ri[0]:
                        rest.append(ri)
            dirty = bool(rest)
            # Column step: only row 0 and the rows in rest have a nonzero
            # column 0, and on row 0 it takes v to v mod pivot.
            for j in range(1, w):
                v = r0[j]
                if v:
                    q = v // pivot
                    if q:
                        r0[j] = v = v - q * pivot
                        for row in rest:
                            row[j] -= q * row[0]
                        ops.append((k, k + j, q))
                    if v:
                        dirty = True
            if dirty:
                continue
            if pivot == 1:
                # 1 divides every entry: no fold.
                break
            viol = next(
                (i for i in range(1, w) if any(x % pivot for x in a[i])), None
            )
            if viol is None:
                break
            # Fold the offending row into row 0; the next elimination round
            # shrinks the pivot, so this terminates.
            a[0] = [x + y for x, y in zip(r0, a[viol])]
        diag.append(pivot)
        a = [row[1:] for row in a[1:]]
    if n == 1:
        (h,), = a
    else:
        # The last 2 x 2 block [[e, f], [g, h]] on four ints: the loop's
        # rounds step for step, with k = n - 2.
        k = n - 2
        (e, f), (g, h) = a
        while True:
            # The pivot: the first entry of least nonzero magnitude.
            best, at = abs(e), 0
            if f and (abs(f) < best or not best):
                best, at = abs(f), 1
            if g and (abs(g) < best or not best):
                best, at = abs(g), 2
            if h and (abs(h) < best or not best):
                best, at = abs(h), 3
            if not best:
                raise SingularMatrixError("matrix has rank below its size")
            if at == 1:
                e, f, g, h = f, e, h, g
                ops.append((k, k + 1, 0))
            elif at == 2:
                e, f, g, h = g, h, e, f
            elif at == 3:
                e, f, g, h = h, g, f, e
                ops.append((k, k + 1, 0))
            if e < 0:
                e, f = -e, -f
            if g:
                q = g // e
                g -= q * e
                h -= q * f
            if f:
                q = f // e
                if q:
                    f -= q * e
                    h -= q * g
                    ops.append((k, k + 1, q))
            if f or g:
                continue
            if e == 1 or not h % e:
                break
            # Fold row 1 into row 0, which is (e, 0).
            f = h
        diag.append(e)
    if not h:
        raise SingularMatrixError("matrix has rank below its size")
    diag.append(abs(h))
    r = [0] * n
    r[-1] = 1
    for k, t, q in reversed(ops):
        if q:
            r[k] -= q * r[t]
        else:
            r[k], r[t] = r[t], r[k]
    return tuple(diag), tuple(r)
