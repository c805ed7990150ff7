"""Shared oracles for the test suite.

Everything in here is implemented independently of the package internals:
determinants by permutation expansion (bareiss_det where d! terms are too
many, as for the facet matching of d >= 6 tilings), linear solves by plain
Fraction elimination, matrix products by plain sums, and triangulation
validity from first principles. minimal_2d gives the exact d=2 yardstick,
the minimal unimodular triangulation. Tests compare package output against these, never against
the package itself. oracle_smith_normal_form is the package's earlier
Smith normal form, kept verbatim with its full R, and oracle_nullspace_mod2
its earlier mod-2 kernel, on rows and as 0/1 tuples. dilation, prime_pi,
rosser_bound and is_power_of_two are helpers the package does not call,
kept here for the tests that use them; dilation is built on the package's
coordinate_rows.
upper_rational is the Fraction form of the bound certify compares the worst
dilation with. greedy_tiling is a second subdivision rule, not an oracle: it
drives the package's own engine with the shortest box point, as a baseline
for the pipeline's tilings.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def perm_det(m) -> int:
    """Determinant by the Leibniz permutation expansion."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        # Parity via cycle decomposition.
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def bareiss_det(m) -> int:
    """Determinant by Bareiss fraction-free elimination, for the sizes where
    perm_det's d! terms are too slow (d >= 6); tested against perm_det."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def cofactor_adjugate(m) -> tuple[tuple[int, ...], ...]:
    """Adjugate as the transposed matrix of cofactors, each by perm_det;
    exact for any square matrix, singular ones included."""
    n = len(m)
    if n == 1:
        return ((1,),)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [m[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * perm_det(minor)
    return tuple(tuple(row) for row in adj)


def mat_vec(m, v) -> tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def mat_mul(a, b) -> tuple[tuple[int, ...], ...]:
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def frac_solve(m, b) -> tuple[Fraction, ...]:
    """Gaussian elimination over Fractions; m must be square nonsingular."""
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[pivot] = a[pivot], a[k]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return tuple(a[k][n] / a[k][k] for k in range(n))


def oracle_barycentric(gens, x) -> tuple[Fraction, ...]:
    """Coordinates of x in the generator basis, via frac_solve."""
    n = len(gens)
    cols = [[gens[j][i] for j in range(n)] for i in range(n)]
    return frac_solve(cols, x)


def oracle_numerators(gens, x) -> tuple[int, ...]:
    """det times the coordinates of x in the generator basis: the numerators
    a subdivision at x is built from, via frac_solve and perm_det."""
    det = perm_det(gens)
    nums = [det * v for v in oracle_barycentric(gens, x)]
    assert all(v.denominator == 1 for v in nums)
    return tuple(int(v) for v in nums)


def oracle_validate_tiling(base_gens, cone_gens_list) -> dict:
    """First-principles validity check of a tiling of a cone.

    Returns dict with:
      containment_ok: every generator of every cone lies in the base cone;
      volume_ok: the cross-section volumes add up to the base volume
        (sum of |det| / prod(dilations) == |det(base)|);
      all_unimodular: every |det| is 1.
    """
    base_mu = abs(perm_det(base_gens))
    containment_ok = True
    volume = Fraction(0)
    all_unimodular = True
    for gens in cone_gens_list:
        mu = abs(perm_det(gens))
        if mu != 1:
            all_unimodular = False
        denom = Fraction(1)
        for g in gens:
            lam = oracle_barycentric(base_gens, g)
            if any(c < 0 for c in lam):
                containment_ok = False
            denom *= sum(lam)
        if denom:
            volume += Fraction(mu) / denom
    return {
        "containment_ok": containment_ok,
        "volume_ok": containment_ok and volume == base_mu,
        "all_unimodular": all_unimodular,
    }


def oracle_facet_matching(base_gens, cone_gens_list) -> dict:
    """Face-to-face check of a tiling by counting facets.

    A facet of a cone is the set of rays of all its generators but one,
    keyed by their sorted primitive directions; its side is the sign of the
    determinant of those directions followed by the dropped one. With a
    cone's directions sorted, dropping the i-th moves that row to the end
    in d-1-i swaps, so one bareiss_det per cone gives all d sides. A facet
    lies on the base boundary when one base coordinate vanishes on all its
    rays: one row of the base's cofactor_adjugate is orthogonal to each. In
    a face-to-face tiling every interior facet belongs to exactly two
    cones, one on each side, and every boundary facet to exactly one cone.

    Returns dict with:
      interior_bad: interior facets not held by one cone on each side;
      boundary_bad: boundary facets not held by exactly one cone;
      face_to_face_ok: both are empty.
    """
    d = len(base_gens)

    def direction(g):
        content = 0
        for c in g:
            content = math.gcd(content, c)
        return tuple(c // content for c in g)

    sides: dict[tuple, list[int]] = {}
    for gens in cone_gens_list:
        rays = sorted(direction(g) for g in gens)
        sign = 1 if bareiss_det(rays) > 0 else -1
        for i in range(d):
            facet = tuple(rays[:i] + rays[i + 1 :])
            sides.setdefault(facet, []).append(-sign if (d - 1 - i) % 2 else sign)
    adj = cofactor_adjugate(tuple(zip(*base_gens)))
    zeros: dict[tuple[int, ...], int] = {}
    interior_bad, boundary_bad = [], []
    for facet, signs in sides.items():
        on_boundary = -1
        for r in facet:
            if r not in zeros:
                dots = [sum(a * c for a, c in zip(row, r)) for row in adj]
                zeros[r] = sum(1 << j for j, dot in enumerate(dots) if dot == 0)
            on_boundary &= zeros[r]
        if on_boundary:
            if len(signs) != 1:
                boundary_bad.append(facet)
        elif sorted(signs) != [-1, 1]:
            interior_bad.append(facet)
    return {
        "interior_bad": interior_bad,
        "boundary_bad": boundary_bad,
        "face_to_face_ok": not interior_bad and not boundary_bad,
    }


def oracle_smith_normal_form(m):
    """Smith normal form of a nonsingular square integer matrix: the
    package's own implementation before its column operations were limited
    to the rows they change, kept verbatim as the reference. It is the only
    Smith normal form anywhere that builds all of R; the package's
    smith_normal_form returns diag and R's last column, which must equal
    this one's exactly.

    Returns (diag, R): there is a unimodular L with L @ m @ R = diag(diag),
    R is unimodular, every diagonal entry is positive, and diag[i] divides
    diag[i+1]. The row operations that make up L are applied to m but not
    recorded.

    Pivot choice is deterministic: the entry of smallest nonzero absolute
    value in the remaining block, scanning rows first, then columns.

    Raises:
        SingularMatrixError: if `m` is singular.
    """
    from conetri.errors import SingularMatrixError

    a = [list(r) for r in m]
    n = len(a)
    rmat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

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


def oracle_nullspace_mod2(m) -> list[tuple[int, ...]]:
    """Basis of the kernel of a square matrix (rows) over GF(2), by
    Gauss-Jordan elimination: 0/1 vectors k with m @ k even in every
    coordinate, one per free column, free columns in increasing order, each
    with a 1 in its own free position. The package's earlier mod-2 kernel."""
    n = len(m)
    # Rows packed as bitmasks (bit c = column c): row xor is one int op.
    a = [sum(1 << c for c, x in enumerate(row) if x & 1) for row in m]
    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        bit = 1 << c
        pivot_row = next((i for i in range(r, n) if a[i] & bit), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        for i in range(n):
            if i != r and a[i] & bit:
                a[i] ^= a[r]
        pivot_cols.append(c)
        r += 1
    basis = []
    for f in range(n):
        if f in pivot_cols:
            continue
        k = [0] * n
        k[f] = 1
        for row_idx, pc in enumerate(pivot_cols):
            k[pc] = a[row_idx] >> f & 1
        basis.append(tuple(k))
    return basis


def even_subsets(gens) -> list[tuple[int, ...]]:
    """Indicator tuples of the nonempty generator subsets whose sum is even
    in every coordinate, by brute force over all 2**d tuples."""
    d = len(gens)
    found = []
    for ind in itertools.product((0, 1), repeat=d):
        if not any(ind):
            continue
        total = [sum(g[j] for g, b in zip(gens, ind) if b) for j in range(d)]
        if all(c % 2 == 0 for c in total):
            found.append(ind)
    return found


def oracle_half_vector(gens):
    """Half the sum of the smallest even subset, ties broken by the least
    indicator tuple; None when no subset is even."""
    subsets = even_subsets(gens)
    if not subsets:
        return None
    best = min(subsets, key=lambda ind: (sum(ind), ind))
    total = [sum(g[j] for g, b in zip(gens, best) if b) for j in range(len(gens))]
    return tuple(c // 2 for c in total)


def upper_rational(x: float) -> Fraction:
    """The float x nudged one ulp up, as an exact rational: a worst dilation
    passes the length certificate exactly when it is at most this."""
    return Fraction(math.nextafter(x, math.inf))


def oracle_dilation(base_gens, x) -> Fraction:
    return sum(oracle_barycentric(base_gens, x))


class OutsideConeError(ValueError):
    """dilation was asked for a point outside the cone."""


def dilation(base, x) -> Fraction:
    """Sum of barycentric coordinates of x with respect to `base`, from the
    package's coordinate_rows: 1 on every base generator, 0 at the origin.

    Raises:
        DimensionError: if x has the wrong length.
        OutsideConeError: if x is not in the cone.
    """
    from conetri.cone_geometry import coordinate_rows
    from conetri.errors import DimensionError

    if len(x) != base.dimension:
        raise DimensionError("point dimension mismatch")
    nums = [sum(map(int.__mul__, row, x)) for row in coordinate_rows(base)]
    if any(n < 0 for n in nums):
        raise OutsideConeError(f"{tuple(x)} lies outside the cone")
    return Fraction(sum(nums), base.multiplicity)


def prime_pi(x: float) -> int:
    """Number of primes strictly below x > 0, by a sieve of Eratosthenes."""
    if x <= 0:
        raise ValueError(f"prime_pi needs x > 0, got {x}")
    limit = math.ceil(x) - 1  # the largest integer below x
    if limit < 2:
        return 0
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for n in range(2, math.isqrt(limit) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytearray(len(range(n * n, limit + 1, n)))
    return sum(sieve)


def rosser_bound(x: float) -> float:
    """Rosser-Schoenfeld's upper bound ROSSER_CONSTANT * x / ln(x) on the
    number of primes below x > 1."""
    from conetri.number_theory import ROSSER_CONSTANT

    if x <= 1:
        raise ValueError(f"rosser_bound needs x > 1, got {x}")
    return ROSSER_CONSTANT * x / math.log(x)


def minimal_2d(g1, g2) -> list[tuple[int, int]]:
    """Rays of the minimal unimodular triangulation of the d=2 cone
    cone(g1, g2), in order from g1 to g2; g1 and g2 primitive and
    independent. Every unimodular triangulation of the cone has all these
    rays: they are the lattice points on the compact edges of the convex
    hull of the cone's nonzero lattice points (Oda, Convex Bodies and
    Algebraic Geometry, 1988, 1.6; Fulton, Introduction to Toric
    Varieties, 1993, 2.6).

    Built from the Hirzebruch-Jung continued fraction of mu/q, in
    O(log mu) integer steps. With s the sign of det(g1, g2) and
    c(v) = s * det(v, g2) a ray's lattice distance from g2's ray, the first
    ray after g1 is the lattice point v with det(g1, v) = s and
    0 <= c(v) < mu (an extended gcd of g1's entries), and each next ray is
    b * v_i - v_{i-1} with b = ceil(c(v_{i-1}) / c(v_i)) >= 2, the least b
    that keeps it in the cone. It ends on g2, where c = 0.
    """
    (a, b), g2 = g1, tuple(g2)
    # a*x + b*y == gcd == +-1, so w = (-y, x) * s * gcd has det(g1, w) == s.
    r0, r1, x0, x1, y0, y1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1, x0, x1, y0, y1 = r1, r0 - q * r1, x1, x0 - q * x1, y1, y0 - q * y1
    mu = a * g2[1] - b * g2[0]
    s = 1 if mu > 0 else -1
    mu *= s
    w = (-y0 * s * r0, x0 * s * r0)

    def c(v):
        return s * (v[0] * g2[1] - v[1] * g2[0])

    t = c(w) // mu
    rays = [tuple(g1), (w[0] - t * a, w[1] - t * b)]
    prev, cur = mu, c(rays[1])
    while cur:
        k = -(-prev // cur)
        (p0, p1), (v0, v1) = rays[-2], rays[-1]
        rays.append((k * v0 - p0, k * v1 - p1))
        prev, cur = cur, k * cur - prev
    assert rays[-1] == g2
    return rays


def staircase_cones(n: int) -> list[tuple[tuple[int, int], ...]]:
    """The expected unimodular tiling of cone((1,0), (1,n))."""
    return [((1, k), (1, k + 1)) for k in range(n)]


def labelled_cone(gens, labels):
    """A SimplicialCone with the given labels and uid 0, its det by perm_det.

    Unlike make_cone it takes any labels and non-primitive generators.

    Raises:
        SingularMatrixError: if the generators are dependent.
    """
    from conetri import SimplicialCone
    from conetri.errors import SingularMatrixError

    gens = tuple(tuple(g) for g in gens)
    det = perm_det(gens)
    if det == 0:
        raise SingularMatrixError("generators are linearly dependent")
    return SimplicialCone(gens, tuple(labels), 0, det)


def canonical(cones) -> list:
    """Order-insensitive form of a list of cones for set comparison."""
    return sorted(tuple(sorted(c.generators)) for c in cones)


def isolated_tiling(gens):
    """Phase 1, then each of its cones refined to unimodular on its own.

    The cones cover the base exactly, but neighbours may halve a shared face
    at different points, so the result need not be face to face: a negative
    control for face-to-face checks.

    Returns:
        (base, state, final): the base cone, phase 1's P2TState and the list
        of all the refined cones.
    """
    from conetri import make_cone, refine_to_unimodular, run_p2t

    base = make_cone(gens)
    state = run_p2t(base)
    final = []
    for cone in state.triangulation.cones:
        final.extend(refine_to_unimodular([cone]))
    return base, state, final


def box_group(cone) -> set[tuple[int, ...]]:
    """The cone's box group: every lattice point x = (1/m) * sum z_g * g with
    each z_g in [0, m), m = |det|, as its coefficient vector z. A breadth-first
    closure of the unit vectors' coordinate-row columns mod m."""
    from conetri.cone_geometry import coordinate_rows

    m = cone.multiplicity
    rows = coordinate_rows(cone)
    steps = [tuple(row[j] % m for row in rows) for j in range(cone.dimension)]
    seen = {(0,) * cone.dimension}
    queue = list(seen)
    for z in queue:
        for s in steps:
            w = tuple((a + b) % m for a, b in zip(z, s))
            if w not in seen:
                seen.add(w)
                queue.append(w)
    assert len(seen) == m
    return seen


def greedy_tiling(gens):
    """A unimodular tiling of make_cone(gens) by the greedy rule, the
    baseline of ROADMAP item 9.

    Each round takes the oldest non-unimodular live cone, picks its
    shortest nonzero box point (the least z by (sum z, z)) and splits every
    live cone containing it, through the engine's own cones_containing and
    split. The point is passed with p = m / gcd(m, z) and z divided by that
    gcd: then p divides every holder's det, as _split_at asserts, which it
    need not for p = m.

    Returns:
        The unimodular cones, in the order they were made.
    """
    from conetri.cone_geometry import _combine, make_cone
    from conetri.p2t_engine import _Engine

    base = make_cone(gens)
    engine = _Engine(base.uid + 1)
    final = []
    if base.multiplicity == 1:
        final.append(base)
    else:
        engine.add(base)
    while (cone := engine.pop()) is not None:
        m = cone.multiplicity
        z = min((z for z in box_group(cone) if any(z)), key=lambda z: (sum(z), z))
        g = math.gcd(m, *z)
        p, z = m // g, tuple(c // g for c in z)
        x = _combine(cone, z, p)
        for parent, moved in engine.cones_containing(cone, z):
            for child in engine.split(parent, x, moved, p):
                if child.multiplicity == 1:
                    final.append(child)
                else:
                    engine.add(child)
    return final
