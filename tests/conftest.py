"""Shared oracles for the test suite.

Everything in here is implemented independently of the package internals:
determinants by permutation expansion, linear solves by plain Fraction
elimination, matrix products by plain sums, and triangulation validity from
first principles. Tests compare package output against these, never against
the package itself.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest


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


def oracle_dilation(base_gens, x) -> Fraction:
    return sum(oracle_barycentric(base_gens, x))


def staircase_cones(n: int) -> list[tuple[tuple[int, int], ...]]:
    """The expected unimodular tiling of cone((1,0), (1,n))."""
    return [((1, k), (1, k + 1)) for k in range(n)]


def canonical(cones) -> list:
    """Order-insensitive form of a list of cones for set comparison."""
    return sorted(tuple(sorted(c.generators)) for c in cones)


@pytest.fixture(scope="session")
def pipeline():
    """Run both phases plus certification on a generator list."""
    from conetri import certify, make_cone, refine_to_unimodular, run_p2t

    def _run(gens):
        base = make_cone(gens)
        state = run_p2t(base)
        final = refine_to_unimodular(state.triangulation)
        report = certify(
            base, final, state.trace, state.triangulation.all_created
        )
        return base, state, final, report

    return _run
