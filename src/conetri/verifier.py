"""Independent certification of a finished triangulation run.

The checks recompute what they can from the generators: tiling checks use
exact rational volume bookkeeping, the audit of the subdivision trace
re-derives potentials from fresh factorizations, and length checks compare
exact dilations against the closed-form ceilings. Three inputs are read as
given, not re-derived: each cone's stored det (its multiplicity), the
trace's mu_parent and mu_children, and the all_created history the label
checks walk. A certificate is therefore only as sound as those records.

The tiling certificate is a cross-section volume identity. Cutting the base
cone with the affine hyperplane {dilation == 1} turns each cone D of the
tiling into a simplex of volume proportional to mu(D) divided by the product
of the dilations of D's generators; those volumes must add up to the base
cone's own cross-section, i.e.

    sum_D mu(D) / prod_{g in D} dilation(base, g) == mu(base).

For tilings whose generators all sit at dilation 1 this is plain
multiplicity additivity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .cone_geometry import SimplicialCone, coordinate_rows
from .exact_linalg import IntMatrix
from .number_theory import eta, factorize, phi
from .p2t_engine import TraceEvent

PHI_SLACK = 1e-6

# Exponent in the simplified final bound: 5 + (3/2) * log2(3/2).
SIMPLE_EXPONENT = 5.0 + 1.5 * math.log2(1.5)


class Certificates(NamedTuple):
    """A run's eight verdicts in report order: sweep, audit, length bound."""

    volume_ok: bool
    containment_ok: bool
    all_unimodular: bool
    phi_descent_ok: bool
    label_depth_ok: bool
    mu_bound_ok: bool
    xi_length_ok: bool
    final_bound_ok: bool


class CertificateReport(NamedTuple):
    """A run's certificates, plus the worst dilation and the bounds on it."""

    certificates: Certificates
    max_dilation: Fraction
    final_bound_thm: float
    final_bound_cor: float | None
    slack_ratio: float


def upper_rational(x: float) -> Fraction:
    """A rational strictly dominating the float x (next representable up).

    Lets exact dilations be compared against float-valued bounds without
    ever rounding the exact side down.
    """
    return Fraction(math.nextafter(x, math.inf))


def _pairwise_sum(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """Exact sum of the fractions num/den (den > 0), as a (num, den) pair.

    Adjacent terms are added in rounds, halving the list each time, and
    every partial sum is reduced by its gcd; the empty sum is (0, 1).
    """
    while len(terms) > 1:
        paired = []
        for k in range(1, len(terms), 2):
            (an, ad), (bn, bd) = terms[k - 1], terms[k]
            num = an * bd + bn * ad
            den = ad * bd
            g = math.gcd(num, den)
            paired.append((num // g, den // g))
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    return terms[0] if terms else (0, 1)


def _sweep(
    base: SimplicialCone, rows: IntMatrix, cones: Sequence[SimplicialCone]
) -> tuple[bool, bool, bool, Fraction]:
    """One pass: containment, volume identity, unimodularity and worst
    dilation. Each distinct generator's coordinates are computed once.

    rows is coordinate_rows(base). Everything is kept in integer
    numerators over D = |det(base)|. A generator g's numerators are
    rows @ g: g lies in the base when none is negative, and their sum s_g
    is D times g's dilation. A cone C's volume term mu(C) / prod(s_g / D)
    is then D**d * mu(C) / prod(s_g), and the terms mu(C) / prod(s_g) are
    added exactly as a balanced pairwise sum (_pairwise_sum), not left to right:
    a running total's denominator grows to the lcm of every denominator
    seen, so each late addition of a left-to-right sum would cost as much
    as the largest. The total vol_n / vol_d is compared with mu(base) = D
    exactly, as vol_n * D**d == D * vol_d. The worst dilation is the
    largest s_g over D, taken over the generators found inside the base.
    """
    mu_base = base.multiplicity
    containment_ok = True
    all_unimodular = True
    scaled: dict[tuple[int, ...], int] = {}
    terms: list[tuple[int, int]] = []
    for c in cones:
        if c.det not in (1, -1):
            all_unimodular = False
        prod = 1
        for g in c.generators:
            s = scaled.get(g)
            if s is None:
                nums = [sum(map(mul, row, g)) for row in rows]
                if any(n < 0 for n in nums):
                    containment_ok = False
                    break
                s = sum(nums)
                scaled[g] = s
            prod *= s
        else:
            terms.append((abs(c.det), prod))
    vol_n, vol_d = _pairwise_sum(terms)
    volume_ok = containment_ok and vol_n * mu_base**base.dimension == mu_base * vol_d
    worst = Fraction(max(scaled.values(), default=0), mu_base)
    return volume_ok, containment_ok, all_unimodular, worst


def _int_name(n: int) -> str:
    """n in decimal, or its bit length when n is past Python's int-to-str
    limit (4300 digits by default)."""
    try:
        return str(n)
    except ValueError:
        return f"of {n.bit_length()} bits"


def intermediate_mu_ceiling(mu: int) -> float:
    """2**(L*(L+3)/2) with L = log2(mu): ceiling for every intermediate
    multiplicity produced while reducing a base of multiplicity mu.

    Raises:
        ValueError: if mu < 1.
        OverflowError: if the ceiling exceeds a float (mu >= ~2**44); the
            message names mu, by its bit length if it has too many digits
            to print.
    """
    if mu < 1:
        raise ValueError(f"multiplicity must be positive, got {mu}")
    ld = math.log2(mu)
    try:
        return 2.0 ** (0.5 * ld * (ld + 3.0))
    except OverflowError:
        raise OverflowError(f"the bounds for mu {_int_name(mu)} overflow a float") from None


def final_bounds(mu: int, d: int) -> tuple[float, float | None]:
    """Length ceilings for the final generators of a full run.

    Returns:
        (thm, cor): the potential-based bound
        (d^2/4) * mu * 4**phi(mu) * (3/2)**(L*(L+3)/2) and, for mu >= 2,
        the simplified bound (d^2/64) * mu**SIMPLE_EXPONENT * (3/2)**(L^2/2)
        with L = log2(mu). cor is None when mu == 1. As 4**phi(mu) is
        mu**4 / 16**eta(mu), cor == thm * 16**(eta(mu) - 1) >= thm.

    Raises:
        ValueError: if mu < 1 or d < 2.
        OverflowError: if d**2 exceeds a float (the message names d), or a
            bound does (the message names mu and d); a number with too many
            digits to print is named by its bit length.
    """
    if mu < 1:
        raise ValueError(f"multiplicity must be positive, got {mu}")
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    try:
        d_squared = float(d * d)
    except OverflowError:
        raise OverflowError(
            f"the bounds for dimension {_int_name(d)} overflow a float"
        ) from None
    ld = math.log2(mu)
    phi_mu = phi(factorize(mu))
    try:  # a product saturates to inf, a power raises
        thm = (d_squared / 4.0) * mu * 4.0**phi_mu * 1.5 ** (0.5 * ld * (ld + 3.0))
        cor = (d_squared / 64.0) * mu**SIMPLE_EXPONENT * 1.5 ** (0.5 * ld * ld)
    except OverflowError:
        thm = cor = math.inf
    if math.inf in (thm, cor):
        raise OverflowError(
            f"the bounds for mu {_int_name(mu)} and dimension {_int_name(d)} overflow a float"
        )
    return thm, (cor if mu > 1 else None)


def audit_trace(
    base: SimplicialCone,
    trace: Iterable[TraceEvent],
    all_created: Sequence[SimplicialCone],
) -> tuple[bool, bool, bool, bool]:
    """Re-audit the recorded trail of a power-of-two phase.

    Checks, with fresh factorizations and exact dilations:
      * phi descent: each child multiplicity has potential at most the
        parent's minus 1, compared exactly;
      * label depth: every cone's largest label s obeys s <= phi(mu) - 1,
        tested exactly as 2**(s + 1 + 2*eta(mu)) <= mu**2;
      * multiplicity ceiling: every created cone obeys intermediate_mu_ceiling;
      * label length: the vector of every nonnegative label s carried by
        any created cone lies in the base with dilation at most
        (d/2) * mu(base) * 4**s, compared exactly. all_created must be the
        full creation history for the coverage argument (newest label per
        cone) to be exhaustive.

    Returns:
        (phi_descent_ok, label_depth_ok, mu_bound_ok, xi_length_ok).
    """
    return _audit(base, coordinate_rows(base), trace, all_created)


def _audit(
    base: SimplicialCone,
    rows: IntMatrix,
    trace: Iterable[TraceEvent],
    all_created: Sequence[SimplicialCone],
) -> tuple[bool, bool, bool, bool]:
    """audit_trace with the base's coordinate_rows already computed."""
    d = base.dimension
    mu_base = base.multiplicity
    # s <= phi(mu) - 1  <=>  2**(s + 1 + 2*eta(mu)) <= mu**2. A cone's
    # largest label is at least -1 (base labels run -1..-d), so the shift
    # is never negative.
    depth_shift = 1 + 2 * eta(factorize(mu_base))
    mu_squared = mu_base * mu_base

    # 4**eta(m), each multiplicity factorized once per call: a run repeats
    # a few hundred multiplicities across tens of thousands of events.
    four_eta: dict[int, int] = {}

    phi_descent_ok = True
    for ev in trace:
        # phi(c) <= phi(p) - 1  <=>  2 * c**2 * 4**eta(p) <= p**2 * 4**eta(c),
        # an exact integer test.
        p = ev.mu_parent
        for m in (p, *ev.mu_children):
            if m not in four_eta:
                four_eta[m] = 4 ** eta(factorize(m))
        four_eta_p = four_eta[p]
        for c in ev.mu_children:
            if 2 * c * c * four_eta_p > p * p * four_eta[c]:
                phi_descent_ok = False

    # A cone's largest label. The depth test is monotone in it, so it runs
    # once, on the largest of all (-1 when all_created is empty, which
    # passes); the ceiling runs once per distinct det.
    tops = [max(cone.labels) for cone in all_created]
    label_depth_ok = 1 << (max(tops, default=-1) + depth_shift) <= mu_squared
    ld_base = math.log2(mu_base)
    log_ceiling = 0.5 * ld_base * (ld_base + 3.0)
    mu_bound_ok = all(
        math.log2(abs(det)) <= log_ceiling + PHI_SLACK
        for det in {cone.det for cone in all_created}
    )
    # Every nonnegative label enters existence on the cones of one event,
    # where it is their largest label; it never changes vector afterwards.
    # Auditing each created cone's newest label, read off its own
    # generators, therefore covers every (label, vector) pair carried by
    # any created cone. A vector inside the base has dilation n / mu for the
    # sum n of its numerators over rows, so the bound is the integer test
    # 2 * n <= d * mu**2 * 4**s; a vector outside fails.
    newest = {
        (cone.generators[cone.labels.index(s)], s)
        for cone, s in zip(all_created, tops)
        if s >= 0
    }
    d_mu_squared = d * mu_squared
    xi_length_ok = True
    for vec, s in newest:
        nums = [sum(map(mul, row, vec)) for row in rows]
        if min(nums) < 0 or 2 * sum(nums) > d_mu_squared * 4**s:
            xi_length_ok = False
    return phi_descent_ok, label_depth_ok, mu_bound_ok, xi_length_ok


def certify(
    base: SimplicialCone,
    final: Sequence[SimplicialCone],
    trace: Iterable[TraceEvent],
    p2t_created: Sequence[SimplicialCone],
) -> CertificateReport:
    """Assemble the full certificate report for a finished run.

    Args:
        base: the original cone.
        final: the unimodular cones produced by both phases
            (refine_to_unimodular's list).
        trace: subdivision events of the power-of-two phase (run_p2t's
            P2TState.trace).
        p2t_created: every cone created during the power-of-two phase,
            base included (P2TState.triangulation.all_created): the audit
            set for the multiplicity and label certificates.

    Returns:
        CertificateReport; its final_bound_ok means every final cone is
        unimodular and the worst dilation sits under the theorem bound,
        which the simplified bound never undercuts (final_bounds).
    """
    rows = coordinate_rows(base)
    volume_ok, containment_ok, all_unimodular, worst = _sweep(base, rows, final)
    if not all_unimodular:
        worst = Fraction(0)
    thm, cor = final_bounds(base.multiplicity, base.dimension)
    audit_flags = _audit(base, rows, trace, p2t_created)
    bound_ok = all_unimodular and worst <= upper_rational(thm)
    reference = cor if cor is not None else thm
    slack = reference / float(worst) if worst > 0 else math.inf
    flags = Certificates(volume_ok, containment_ok, all_unimodular, *audit_flags, bound_ok)
    return CertificateReport(flags, worst, thm, cor, slack)
