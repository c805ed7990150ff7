"""Independent certification of a finished triangulation run.

The checks recompute what they can from the generators: tiling checks use
exact rational volume bookkeeping, the audit of the subdivision trace
re-derives potentials from fresh factorizations and checks each label
vector's exact dilation against its budget. Two comparisons go through a
float: the multiplicity ceiling is compared in log2 with PHI_SLACK, and the
exact worst dilation is compared with the float theorem bound nudged one
ulp up (_within). Every det, the base's and each final cone's, is computed
from its generators (exact_linalg.determinant), never read from the cone.
One input is read as given, not re-derived: the trace itself (each event's
x_prime, new_label_index, mu_parent and mu_children). A certificate is
therefore only as sound as that record.

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
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .cone_geometry import SimplicialCone, coordinate_rows
from .errors import DimensionError
from .exact_linalg import IntMatrix, determinant
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
    """A run's certificates, the worst dilation as a reduced (num, den)
    pair, and the bounds on it."""

    certificates: Certificates
    max_dilation: tuple[int, int]
    final_bound_thm: float
    final_bound_cor: float | None
    slack_ratio: float


def _within(ratio: tuple[int, int], bound: float) -> bool:
    """num/den (den > 0) <= the bound nudged one ulp up, compared exactly."""
    num, den = ratio
    a, b = math.nextafter(bound, math.inf).as_integer_ratio()
    return num * b <= a * den


def _pairwise_sum(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """Exact sum of the ratios num/den (den > 0), as a (num, den) pair.

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


def _measured(base: SimplicialCone) -> tuple[SimplicialCone, IntMatrix]:
    """base with its det computed from its generators, and its
    coordinate_rows: no verdict rests on a stored det."""
    base = SimplicialCone(base.generators, base.labels, base.uid, determinant(base.generators))
    return base, coordinate_rows(base)


def _sweep(
    base: SimplicialCone, rows: IntMatrix, cones: Sequence[SimplicialCone]
) -> tuple[bool, bool, bool, tuple[int, int]]:
    """One pass: containment, volume identity, unimodularity and worst
    dilation. Each distinct generator's coordinates are computed once.

    rows is coordinate_rows(base). Everything is kept in integer
    numerators over D = |det(base)|. A generator g's numerators are
    rows @ g: g lies in the base when it has length d and none is
    negative, and their sum s_g is D times g's dilation. The rows are
    nonsingular, so s_g == 0 only for the zero vector, which no cone may
    hold. A cone C's multiplicity mu(C) is the |determinant| of its
    generators (0 if they are not a square matrix), and its volume term
    mu(C) / prod(s_g / D) is then D**d * mu(C) / prod(s_g), and the terms
    mu(C) / prod(s_g) are added exactly as a balanced pairwise sum
    (_pairwise_sum), not left to right: a running total's denominator
    grows to the lcm of every denominator seen, so each late addition of a
    left-to-right sum would cost as much as the largest. The total
    vol_n / vol_d is compared with mu(base) = D exactly, as
    vol_n * D**d == D * vol_d. The worst dilation is the largest s_g over
    D, taken over the generators found inside the base, as a (num, den)
    pair reduced by its gcd: (0, 1) when there is none.
    """
    d = base.dimension
    mu_base = base.multiplicity
    containment_ok = True
    all_unimodular = True
    scaled: dict[tuple[int, ...], int] = {}
    terms: list[tuple[int, int]] = []
    for c in cones:
        try:
            mu = abs(determinant(c.generators))
        except DimensionError:
            mu = 0
        if mu != 1:
            all_unimodular = False
        prod = 1
        for g in c.generators:
            s = scaled.get(g)
            if s is None:
                nums = [sum(map(mul, row, g)) for row in rows]
                s = sum(nums)
                if len(g) != d or min(nums) < 0 or not s:
                    containment_ok = False
                    break
                scaled[g] = s
            prod *= s
        else:
            terms.append((mu, prod))
    vol_n, vol_d = _pairwise_sum(terms)
    volume_ok = containment_ok and vol_n * mu_base**d == mu_base * vol_d
    top = max(scaled.values(), default=0)
    common = math.gcd(top, mu_base)
    return volume_ok, containment_ok, all_unimodular, (top // common, mu_base // common)


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
        OverflowError: if d**2 exceeds a float (the message names d), or
            intermediate_mu_ceiling(mu) or a bound does (the message names
            mu and d); a number with too many digits to print is named by
            its bit length. The ceiling, which overflows from mu ~2**44 on,
            is tested before factorize trial-divides up to sqrt(mu).
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
    overflow = OverflowError(
        f"the bounds for mu {_int_name(mu)} and dimension {_int_name(d)} overflow a float"
    )
    try:
        intermediate_mu_ceiling(mu)
    except OverflowError:
        raise overflow from None
    ld = math.log2(mu)
    thm = (d_squared / 4.0) * mu * 4.0 ** phi(factorize(mu)) * 1.5 ** (0.5 * ld * (ld + 3.0))
    cor = (d_squared / 64.0) * mu**SIMPLE_EXPONENT * 1.5 ** (0.5 * ld * ld)
    if math.inf in (thm, cor):
        raise overflow
    return thm, (cor if mu > 1 else None)


def audit_trace(
    base: SimplicialCone,
    trace: Iterable[TraceEvent],
    all_created: Sequence[SimplicialCone],
) -> tuple[bool, bool, bool, bool]:
    """Re-audit the recorded trail of a power-of-two phase.

    Checks, from the trace alone:
      * phi descent: each child multiplicity has potential at most the
        parent's minus 1, compared exactly with fresh factorizations;
      * label depth: every new label s obeys s <= phi(mu) - 1, tested
        exactly as 2**(s + 1 + 2*eta(mu)) <= mu**2;
      * multiplicity ceiling: every multiplicity the trace names obeys
        intermediate_mu_ceiling, compared in log2 with PHI_SLACK;
      * label length: every event's x_prime lies in the base with dilation
        at most (d/2) * mu(base) * 4**s for its label s, compared exactly.

    all_created is not read. It is kept because perfbench/run.py passes
    P2TState.triangulation.all_created here, and goes with ROADMAP item 2.

    Returns:
        (phi_descent_ok, label_depth_ok, mu_bound_ok, xi_length_ok).
    """
    return _audit(*_measured(base), trace)


def _audit(
    base: SimplicialCone, rows: IntMatrix, trace: Iterable[TraceEvent]
) -> tuple[bool, bool, bool, bool]:
    """audit_trace on _measured's base and rows.

    The trace covers every cone run_p2t creates: each child of an event
    carries the event's new_label_index as its largest label, with x_prime
    as its vector, and has one of the event's mu_children as its
    multiplicity; every parent is the base or an earlier child.
    """
    d = base.dimension
    mu_base = base.multiplicity
    # s <= phi(mu) - 1  <=>  2**(s + 1 + 2*eta(mu)) <= mu**2. A run's
    # labels are at least -1 (base labels run -1..-d), so the shift is
    # never negative.
    depth_shift = 1 + 2 * eta(factorize(mu_base))
    mu_squared = mu_base * mu_base

    # 4**eta(m), each multiplicity factorized once per call: a run repeats
    # a few hundred multiplicities across tens of thousands of events.
    four_eta: dict[int, int] = {}
    newest: set[tuple[tuple[int, ...], int]] = set()

    phi_descent_ok = True
    for ev in trace:
        # phi(c) <= phi(p) - 1  <=>  2 * c**2 * 4**eta(p) <= p**2 * 4**eta(c),
        # an exact integer test.
        p = ev.mu_parent
        four_eta_p = four_eta.get(p)
        if four_eta_p is None:
            four_eta_p = four_eta[p] = 4 ** eta(factorize(p))
        for c in ev.mu_children:
            four_eta_c = four_eta.get(c)
            if four_eta_c is None:
                four_eta_c = four_eta[c] = 4 ** eta(factorize(c))
            if 2 * c * c * four_eta_p > p * p * four_eta_c:
                phi_descent_ok = False
        newest.add((ev.x_prime, ev.new_label_index))

    # The depth test is monotone in the label, so it runs once, on the
    # largest (-1, the base's, for an empty trace, which passes).
    top = max((s for _, s in newest), default=-1)
    label_depth_ok = 1 << (top + depth_shift) <= mu_squared
    # The ceiling runs once per multiplicity the trace names. mu_base needs
    # no test of its own: L <= L * (L + 3) / 2 for every L = log2(mu) >= 0.
    ld_base = math.log2(mu_base)
    log_ceiling = 0.5 * ld_base * (ld_base + 3.0)
    mu_bound_ok = all(math.log2(m) <= log_ceiling + PHI_SLACK for m in four_eta)
    # A vector inside the base has dilation n / mu for the sum n of its
    # numerators over rows, so the bound is the integer test
    # 2 * n <= d * mu**2 * 4**s; a vector outside, or not of length d, fails.
    d_mu_squared = d * mu_squared
    xi_length_ok = True
    for vec, s in newest:
        nums = [sum(map(mul, row, vec)) for row in rows]
        if len(vec) != d or min(nums) < 0 or 2 * sum(nums) > d_mu_squared * 4**s:
            xi_length_ok = False
    return phi_descent_ok, label_depth_ok, mu_bound_ok, xi_length_ok


def certify(
    base: SimplicialCone,
    final: Sequence[SimplicialCone],
    trace: Iterable[TraceEvent],
) -> CertificateReport:
    """Assemble the full certificate report for a finished run.

    No stored det is read: the base's and every final cone's are computed
    from their generators (_measured, _sweep).

    Args:
        base: the original cone.
        final: the unimodular cones produced by both phases
            (refine_to_unimodular's list).
        trace: subdivision events of the power-of-two phase (run_p2t's
            P2TState.trace), the one record audit_trace reads; () for a
            tiling without a phase 1.

    Returns:
        CertificateReport; its final_bound_ok means every final cone is
        unimodular and the exact worst dilation sits under the float theorem
        bound nudged one ulp up (_within). The simplified bound never
        undercuts the theorem bound (final_bounds).
    """
    base, rows = _measured(base)
    volume_ok, containment_ok, all_unimodular, worst = _sweep(base, rows, final)
    if not all_unimodular:
        worst = (0, 1)
    thm, cor = final_bounds(base.multiplicity, base.dimension)
    audit_flags = _audit(base, rows, trace)
    bound_ok = all_unimodular and _within(worst, thm)
    reference = cor if cor is not None else thm
    num, den = worst
    slack = reference / (num / den) if num else math.inf
    flags = Certificates(volume_ok, containment_ok, all_unimodular, *audit_flags, bound_ok)
    return CertificateReport(flags, worst, thm, cor, slack)
