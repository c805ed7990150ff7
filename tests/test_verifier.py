"""Certificates: tiling validity, dilation bounds, trace audits."""

import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conetri.cone_geometry import SimplicialCone, coordinate_rows, make_cone
from conetri.number_theory import eta, factorize, phi
from conetri.p2t_engine import TraceEvent, run_p2t
from conetri.pow2_refiner import refine_to_unimodular
from conetri.verifier import (
    _sweep,
    _within,
    audit_trace,
    certify,
    final_bounds,
    intermediate_mu_ceiling,
)

from conftest import (
    dilation,
    isolated_tiling,
    labelled_cone,
    minimal_2d,
    oracle_dilation,
    oracle_facet_matching,
    oracle_validate_tiling,
    staircase_cones,
    upper_rational,
)
from test_cone_geometry import random_cone_gens, split


def cones_from_gens(gens_list):
    return [make_cone(g) for g in gens_list]


def test_verify_triangulation_examples():
    unit = make_cone([(1, 0), (0, 1)])
    vol, cont, unimodular, _ = _sweep(unit, coordinate_rows(unit), [unit])
    assert vol and cont and unimodular is True

    base = make_cone([(1, 0), (1, 3)])
    steps = cones_from_gens(staircase_cones(3))
    vol, cont, unimodular, _ = _sweep(base, coordinate_rows(base), steps)
    assert vol and cont and unimodular

    vol, cont, _, _ = _sweep(base, coordinate_rows(base), steps[:-1])
    assert not vol
    assert cont


def test_verify_triangulation_flags_nonunimodular():
    base = make_cone([(1, 0), (1, 4)])
    half = cones_from_gens([((1, 0), (1, 2)), ((1, 2), (1, 4))])
    rows = coordinate_rows(base)
    vol, cont, unimodular, _ = _sweep(base, rows, half)
    assert vol and cont
    assert unimodular is False
    # Each cone on its own is flagged, not just the tiling as a whole.
    assert [_sweep(base, rows, [c])[2] for c in half] == [False, False]


def test_max_dilation_examples():
    # _sweep's fourth result is the worst dilation of any generator.
    base = make_cone([(1, 0), (1, 3)])
    # It is a (num, den) pair reduced by its gcd.
    assert _sweep(base, coordinate_rows(base), cones_from_gens(staircase_cones(3)))[3] == (1, 1)
    unit = make_cone([(1, 0), (0, 1)])
    assert _sweep(unit, coordinate_rows(unit), [unit])[3] == (1, 1)
    # The fan's ray (2, 1) sits at dilation 3 over the unit cone.
    assert _sweep(unit, coordinate_rows(unit), cones_from_gens(THREE_BUCKETS))[3] == (3, 1)
    # (3, 2) = (4/3) * (2, 1) + (1/3) * (1, 2) sits at 5/3; no generator is 0.
    skew = make_cone([(2, 1), (1, 2)])
    assert _sweep(skew, coordinate_rows(skew), [make_cone([(3, 2), (1, 1)])])[3] == (5, 3)
    assert _sweep(skew, coordinate_rows(skew), [])[3] == (0, 1)


def test_max_dilation_full_pipeline_mu5():
    base = make_cone([(1, 0), (1, 5)])
    state = run_p2t(base)
    final = refine_to_unimodular(state.triangulation.cones)
    assert _sweep(base, coordinate_rows(base), final)[3] == (1, 1)


def test_final_bounds_examples():
    thm, cor = final_bounds(3, 2)
    assert cor == pytest.approx(66.269, rel=1e-3)
    assert thm == pytest.approx(cor, rel=1e-9)
    # Powers of two collapse the 4**phi factor to 1.
    thm4, _ = final_bounds(4, 3)
    assert thm4 == pytest.approx((9 / 4) * 4 * 1.5**5, rel=1e-12)
    thm1, cor1 = final_bounds(1, 2)
    assert thm1 == 1.0 and cor1 is None
    assert intermediate_mu_ceiling(6) == pytest.approx(149.0, rel=1e-2)
    with pytest.raises(ValueError):
        final_bounds(0, 2)
    with pytest.raises(ValueError):
        final_bounds(3, 1)


def test_final_bounds_overflow_names_mu_and_dimension():
    # d**2 fits a float, but the product saturates to inf.
    with pytest.raises(OverflowError, match=f"mu {2**43} and dimension {10**100} "):
        final_bounds(2**43, 10**100)
    with pytest.raises(OverflowError, match=f"for dimension {10**400} overflow"):
        final_bounds(12, 10**400)


def test_final_bounds_names_the_overflow_before_it_sieves(monkeypatch):
    # A mu past intermediate_mu_ceiling (~2**44) is named before factorize
    # trial-divides up to sqrt(mu), which for a mu with a large prime
    # factor takes seconds (2**47 - 115), minutes (2**61 - 1) or never ends.
    def no_factorize(mu):
        pytest.fail(f"final_bounds factorized {mu} before naming the overflow")

    monkeypatch.setattr("conetri.verifier.factorize", no_factorize)
    with pytest.raises(OverflowError) as exc:
        final_bounds(2**20000, 3)
    assert str(exc.value) == "the bounds for mu of 20001 bits and dimension 3 overflow a float"
    with pytest.raises(OverflowError, match=f"for mu {2**60} and dimension 3 overflow"):
        final_bounds(2**60, 3)
    with pytest.raises(OverflowError, match=f"for mu {2**61 - 1} and dimension 3 overflow"):
        final_bounds(2**61 - 1, 3)
    # The simplified bound fits a float here, but the run's own ceiling
    # intermediate_mu_ceiling does not, so mu is refused unfactorized.
    with pytest.raises(OverflowError, match=f"for mu {2**47 - 115} and dimension 2 overflow"):
        final_bounds(2**47 - 115, 2)


def test_overflow_names_a_number_too_long_to_print_by_its_bit_length():
    # 10**5000 has more digits than Python's int-to-str limit (4300), so
    # f"{mu}" would raise a ValueError in place of the OverflowError.
    huge = 10**5000
    with pytest.raises(OverflowError) as exc:
        intermediate_mu_ceiling(huge)
    assert str(exc.value) == "the bounds for mu of 16610 bits overflow a float"
    with pytest.raises(OverflowError) as exc:
        final_bounds(12, huge)
    assert str(exc.value) == "the bounds for dimension of 16610 bits overflow a float"
    # A number that prints is still named in decimal.
    with pytest.raises(OverflowError) as exc:
        intermediate_mu_ceiling(10**4000)
    assert str(exc.value) == f"the bounds for mu {10**4000} overflow a float"


def test_theorem_bound_is_within_128_ulps_of_its_exact_value():
    # thm = (d^2/4) * mu^5 * 16^-eta * (3/2)^(L(L+3)/2), L = log2(mu), in
    # 60-digit decimal. The float formula lands on either side of it (up to
    # ~70 ulps here), so final_bound_ok, which compares with thm nudged one
    # ulp up, is not exact near the bound; this pins the size of the gap.
    with localcontext() as ctx:
        ctx.prec = 60
        ln2 = Decimal(2).ln()
        ln_three_halves = Decimal("1.5").ln()
        for d in range(2, 6):
            for mu in range(2, 1001):
                thm, _ = final_bounds(mu, d)
                L = Decimal(mu).ln() / ln2
                exact = (
                    Decimal(d * d * mu**5)
                    / 4
                    / 16 ** eta(factorize(mu))
                    * (L * (L + 3) / 2 * ln_three_halves).exp()
                )
                ulps = (Decimal(thm) - exact) / Decimal(math.ulp(thm))
                assert abs(ulps) <= 128, (mu, d, ulps)


def test_theorem_bound_never_exceeds_the_simplified_one():
    # 4**phi(mu) == mu**4 / 16**eta(mu), so cor == thm * 16**(eta - 1) and
    # for mu >= 2 comparing against cor as well as thm decides nothing.
    # The two float formulas round apart by up to ~45 ulps here.
    ulps = 64 * sys.float_info.epsilon
    for d in range(2, 6):
        for mu in range(2, 5001):
            thm, cor = final_bounds(mu, d)
            assert thm <= cor * (1 + ulps), (mu, d)
            scale = 16.0 ** (eta(factorize(mu)) - 1)
            assert cor == pytest.approx(thm * scale, rel=ulps), (mu, d)


def test_final_bounds_monotonicity():
    # The simplified bound grows monotonically in mu. The potential-based
    # bound does not (phi oscillates with the factorization), but it does
    # along the power-of-two slice where phi vanishes.
    for d in (2, 3):
        prev = 0.0
        for mu in range(2, 2001):
            _, cor = final_bounds(mu, d)
            assert cor >= prev
            prev = cor
        prev = 0.0
        for l in range(0, 14):
            thm, _ = final_bounds(2**l, d)
            assert thm >= prev
            prev = thm


def test_within_agrees_with_the_fraction_comparison():
    # certify's length verdict tests num/den <= thm nudged one ulp up in
    # integers. It must agree with the exact Fraction comparison: at
    # equality, on the float's neighbours, with ints far past a float, and
    # for x = 0 and subnormal x. The threshold is strictly above x itself.
    xs = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.1, 1.0, 1.5,
          66.269, 12345.678, 2.0**52 + 1, 1e300, sys.float_info.max / 2]
    rng = random.Random(20)
    xs += [rng.uniform(0.0, 1e6) for _ in range(40)]
    huge = 10**400
    seen = set()
    for x in xs:
        up = math.nextafter(x, math.inf)
        ratios = [
            x.as_integer_ratio(),
            up.as_integer_ratio(),
            math.nextafter(up, math.inf).as_integer_ratio(),
            math.nextafter(x, -math.inf).as_integer_ratio() if x else (0, 1),
        ]
        a, b = up.as_integer_ratio()
        ratios += [
            (a * huge, b * huge),
            (a * huge + 1, b * huge),
            (a * huge - 1, b * huge),
            (huge, 1),
            (1, huge),
            (0, 1),
        ]
        for num, den in ratios:
            want = Fraction(num, den) <= upper_rational(x)
            assert _within((num, den), x) == want, (x, num, den)
            seen.add(want)
        assert _within(x.as_integer_ratio(), x)
        assert _within((a, b), x)
        assert not _within((a * huge + 1, b * huge), x)
    assert seen == {True, False}


def test_audit_trace_pipeline_example():
    base = make_cone([(1, 0), (1, 3)])
    state = run_p2t(base)
    flags = audit_trace(base, state.trace, state.triangulation.all_created)
    assert flags == (True, True, True, True)


def test_audit_trace_vacuous():
    base = make_cone([(1, 0), (1, 2)])
    assert audit_trace(base, [], [base]) == (True, True, True, True)


def split_event(x_prime, new_label_index, mu_children, mu_parent=3):
    """A TraceEvent that claims a split at x_prime with the given label and
    multiplicities; the audit reads no other field."""
    return TraceEvent(0, 3, (0, 0), (0, 0), x_prime, new_label_index, (1,), mu_parent, mu_children)


def test_audit_trace_negative_controls():
    base = make_cone([(1, 0), (1, 3)])

    # A child whose multiplicity did not drop in potential.
    stuck = TraceEvent(0, 3, (0, 0), (0, 0), (1, 1), 0, (1,), 3, (3,))
    phi_ok, _, _, _ = audit_trace(base, [stuck], [base])
    assert not phi_ok

    # 1393 = 7 * 199 -> 985 = 5 * 197 misses the required drop of 1 by
    # only 7.4e-7, because 2 * 985**2 == 1393**2 + 1.
    near = TraceEvent(0, 7, (1, 1), (1, 1), (1, 1), 0, (1,), 1393, (985,))
    assert phi(factorize(985)) - (phi(factorize(1393)) - 1) < 1e-6
    phi_ok, _, _, _ = audit_trace(base, [near], [base])
    assert not phi_ok

    # A child multiplicity above the intermediate ceiling (here 2^3.63 ~ 12.4).
    big = split_event((1, 1), 0, (16,))
    assert 16 > intermediate_mu_ceiling(base.multiplicity)
    _, _, mu_ok, _ = audit_trace(base, [big], [base])
    assert not mu_ok

    # Label index beyond the phi(mu)-1 depth budget.
    deep = split_event((1, 1), 5, (2,))
    _, depth_ok, _, xi_ok = audit_trace(base, [deep], [base])
    assert not depth_ok
    assert xi_ok

    # mu = 2**22 - 1 = 3 * 23 * 89 * 683 gives phi(mu) - 1 = 34.9999993:
    # label 35 is one too deep, by less than the old 1e-6 float slack.
    wide = make_cone([(1, 0), (1, 2**22 - 1)])
    mu_wide = wide.multiplicity
    assert 35 - (phi(factorize(mu_wide)) - 1) < 1e-6
    _, depth_ok, _, _ = audit_trace(wide, [split_event((1, 0), 35, (1,), mu_wide)], [wide])
    assert not depth_ok
    _, depth_ok, _, _ = audit_trace(wide, [split_event((1, 0), 34, (1,), mu_wide)], [wide])
    assert depth_ok

    # Label-0 vector longer than (d/2)*mu*4^0 = 3.
    long0 = split_event((4, 0), 0, (12,))
    assert dilation(base, (4, 0)) == 4
    _, depth_ok, mu_ok, xi_ok = audit_trace(base, [long0], [base])
    assert depth_ok and mu_ok
    assert not xi_ok
    # Exactly at the bound passes.
    at_bound = split_event((3, 0), 0, (9,))
    assert dilation(base, (3, 0)) == 3
    assert audit_trace(base, [at_bound], [base])[3]


def test_audit_trace_fails_a_label_vector_outside_the_base():
    # The label-0 vector (-1, 1) lies outside the base: the length
    # certificate fails instead of raising.
    base = make_cone([(1, 0), (0, 1)])
    outside = [split_event((-1, 1), 0, (1,), 1)]
    assert audit_trace(base, outside, [base])[3] is False
    report = certify(base, [base], outside)
    assert not report.certificates.xi_length_ok


@pytest.mark.parametrize("d,bound", [(2, 9), (3, 5), (4, 3), (5, 2)])
def test_newest_labels_cover_every_trace_vector(d, bound):
    # The audit reads the trace alone. It covers every cone phase 1 created
    # only if each created cone's newest (label, vector) pair, the largest
    # label and the set of multiplicities all come out of the events.
    rng = random.Random(1000 + d)
    for _ in range(6):
        base = make_cone(random_cone_gens(rng, d, bound))
        state = run_p2t(base)
        created = state.triangulation.all_created
        newest = set()
        for cone in created:
            s = cone.max_label()
            if s >= 0:
                newest.add((s, cone.generators[cone.labels.index(s)]))
        events = {(ev.new_label_index, ev.x_prime) for ev in state.trace}
        assert newest == events
        top = max(cone.max_label() for cone in created)
        assert top == max((ev.new_label_index for ev in state.trace), default=-1)
        mus = {base.multiplicity}
        for ev in state.trace:
            mus.update(ev.mu_children)
        assert {abs(c.det) for c in created} == mus


def test_certify_report_mu3():
    base = make_cone([(1, 0), (1, 3)])
    state = run_p2t(base)
    final = refine_to_unimodular(state.triangulation.cones)
    rep = certify(base, final, state.trace)
    ok = rep.certificates
    assert ok.volume_ok and ok.containment_ok and ok.all_unimodular
    assert ok.phi_descent_ok and ok.label_depth_ok
    assert ok.mu_bound_ok and ok.xi_length_ok
    assert rep.max_dilation == (1, 1)
    assert ok.final_bound_ok
    assert len(final) == 3
    assert rep.slack_ratio == pytest.approx(rep.final_bound_cor, rel=1e-9)


def test_certify_unimodular_base_meets_the_bound_with_equality():
    # mu = 1: the base is its own tiling, its generators have dilation
    # exactly 1, and the theorem bound (d^2/4) * mu * 4**phi(1) * (3/2)**0
    # is 1.0 at d = 2, so the bound holds with equality; the simplified
    # bound is undefined for mu = 1.
    base = make_cone([(1, 0), (0, 1)])
    state = run_p2t(base)
    final = refine_to_unimodular(state.triangulation.cones)
    rep = certify(base, final, state.trace)
    assert rep.max_dilation == (1, 1)
    assert rep.final_bound_thm == 1.0
    assert rep.final_bound_cor is None
    assert rep.certificates.final_bound_ok


def test_certify_flags_bad_tiling():
    base = make_cone([(1, 0), (1, 3)])
    state = run_p2t(base)
    broken = refine_to_unimodular(state.triangulation.cones)[:-1]
    rep = certify(base, broken, ())
    assert not rep.certificates.volume_ok
    assert rep.certificates.containment_ok
    assert len(broken) == 2


def test_certify_computes_every_final_det():
    # The mu-2 base listed twice, with stored dets 1 and -1: two
    # "unimodular" cones whose stored volume terms add up to the base's.
    # certify reads no stored det, and the computed ones (2 each) fail the
    # tiling.
    base = make_cone([(1, 0), (1, 2)])
    forged = [SimplicialCone(base.generators, base.labels, uid, det) for uid, det in ((1, 1), (2, -1))]
    flags = certify(base, forged, ()).certificates
    assert not flags.all_unimodular and not flags.volume_ok
    assert not flags.final_bound_ok


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_certify_random_cones(seed):
    rng = random.Random(seed)
    d = rng.choice([2, 3])
    gens = random_cone_gens(rng, d, 5)
    base = make_cone(gens)
    state = run_p2t(base)
    final = refine_to_unimodular(state.triangulation.cones)
    rep = certify(base, final, state.trace)
    ok = rep.certificates
    assert ok.volume_ok and ok.containment_ok and ok.all_unimodular
    assert ok.phi_descent_ok and ok.label_depth_ok
    assert ok.mu_bound_ok and ok.xi_length_ok
    assert ok.final_bound_ok
    assert Fraction(*rep.max_dilation) <= upper_rational(rep.final_bound_thm)
    if rep.final_bound_cor is not None:
        assert Fraction(*rep.max_dilation) <= upper_rational(rep.final_bound_cor)
    # Oracle agreement on the worst stretch, also against the same cone
    # with its orientation flipped: one of the two bases has det < 0.
    worst = max(
        oracle_dilation(gens, g) for c in final for g in c.generators
    )
    assert rep.max_dilation == (worst.numerator, worst.denominator)
    flipped = make_cone(swap_first_two(gens))
    assert flipped.det == -base.det
    assert _sweep(flipped, coordinate_rows(flipped), final)[3] == rep.max_dilation
    # Negative labels are original base generators: dilation exactly 1.
    for c in final:
        for s, vec in zip(c.labels, c.generators):
            if s < 0:
                assert oracle_dilation(gens, vec) <= 1


def fan(rays):
    """The 2d cones between consecutive rays."""
    return [(a, b) for a, b in zip(rays, rays[1:])]


def stellar_chain(base_gens, picks):
    """A tiling of the base built by stellar subdivisions: each pick
    (cone index, generator slots) splits that cone at the sum of the
    generators in those slots, with numerators from the oracle."""
    cones = [make_cone(base_gens)]
    for index, slots in picks:
        cone = cones.pop(index)
        x = [sum(cone.generators[i][j] for i in slots) for j in range(len(base_gens))]
        cones.extend(split(cone, x))
    return [c.generators for c in cones]


def volume_buckets(base_gens, cone_gens_list) -> int:
    """Distinct products of the dilation numerators over the cones: the
    number of distinct denominators among the volume terms."""
    return len(
        {
            math.prod(oracle_dilation(base_gens, g).numerator for g in gens)
            for gens in cone_gens_list
        }
    )


UNIT = ((1, 0), (0, 1))
TWO_BUCKETS = fan([(1, 0), (2, 1), (1, 1), (1, 2), (0, 1)])
THREE_BUCKETS = fan([(1, 0), (2, 1), (1, 1), (0, 1)])
BASE_3D = ((1, 0, 0), (1, 3, 0), (1, 1, 4))
CHAIN_3D = stellar_chain(
    BASE_3D, [(0, (0, 1, 2)), (1, (0, 1)), (3, (0, 2)), (0, (1, 2)), (2, (0, 1, 2))]
)

VOLUME_CASES = [
    ("empty", UNIT, []),
    ("base itself", UNIT, [UNIT]),
    ("staircase", ((1, 0), (1, 3)), staircase_cones(3)),
    ("two buckets", UNIT, TWO_BUCKETS),
    ("three buckets", UNIT, THREE_BUCKETS),
    ("stellar chain", BASE_3D, CHAIN_3D),
    ("one dropped", UNIT, THREE_BUCKETS[:1] + THREE_BUCKETS[2:]),
    ("one doubled", UNIT, THREE_BUCKETS + THREE_BUCKETS[1:2]),
    ("chain, one dropped", BASE_3D, CHAIN_3D[1:]),
    ("chain, one doubled", BASE_3D, CHAIN_3D + CHAIN_3D[-1:]),
]


def swap_first_two(gens):
    """The same generators with the first two swapped: the same cone, with
    the sign of its det flipped."""
    return (gens[1], gens[0]) + tuple(gens[2:])


def assert_sweep_ignores_orientation(base_gens, cone_gens_list):
    # _sweep reads everything off sign(det) * adj(base) @ g; flipping the
    # base's orientation negates det and adj together, so all four results
    # must stay the same.
    cones = [labelled_cone(g, tuple(range(-1, -len(g) - 1, -1))) for g in cone_gens_list]
    base = make_cone(base_gens)
    flipped = make_cone(swap_first_two(base_gens))
    assert flipped.det == -base.det
    assert _sweep(flipped, coordinate_rows(flipped), cones) == _sweep(base, coordinate_rows(base), cones)


@pytest.mark.parametrize(
    "base_gens, cone_gens_list",
    [case[1:] for case in VOLUME_CASES],
    ids=[case[0] for case in VOLUME_CASES],
)
def test_volume_identity_matches_oracle(base_gens, cone_gens_list):
    base = make_cone(base_gens)
    cones = [labelled_cone(g, tuple(range(-1, -len(g) - 1, -1))) for g in cone_gens_list]
    vol, _, _, _ = _sweep(base, coordinate_rows(base), cones)
    assert vol == oracle_validate_tiling(base_gens, cone_gens_list)["volume_ok"]
    assert_sweep_ignores_orientation(base_gens, cone_gens_list)


def test_sweep_ignores_base_orientation_on_the_counterexamples():
    # The two tilings that pass every certificate without being face to
    # face: a doubled step with an uncovered strip, and the isolated
    # refinement of a mu-19 d=4 cone (see test_cli).
    overlap = staircase_cones(3) + staircase_cones(1)
    assert_sweep_ignores_orientation(((1, 0), (1, 4)), overlap)
    gens = ((1, 1, 0, -3), (-2, -3, 1, 3), (-2, -1, 0, -2), (1, -3, 1, -1))
    _, _, final = isolated_tiling(gens)
    assert_sweep_ignores_orientation(gens, [c.generators for c in final])


def test_volume_cases_cover_bucket_counts():
    counts = {name: volume_buckets(b, cs) for name, b, cs in VOLUME_CASES}
    assert counts["empty"] == 0
    assert counts["base itself"] == counts["staircase"] == 1
    assert counts["two buckets"] == 2
    assert counts["three buckets"] == 3
    assert counts["stellar chain"] % 2 == 1 and counts["stellar chain"] > 3
    good = [n for n, b, cs in VOLUME_CASES if oracle_validate_tiling(b, cs)["volume_ok"]]
    assert good == ["base itself", "staircase", "two buckets", "three buckets", "stellar chain"]


def test_facet_oracle_sees_what_the_volume_identity_misses():
    # Base cone((1,0),(1,4)): the staircase tiles it, while a doubled step
    # and an uncovered strip add up to the same volume. Only the facet
    # count tells them apart; certify has no such check yet.
    base_gens = ((1, 0), (1, 4))
    base = make_cone(base_gens)
    staircase = staircase_cones(4)
    assert oracle_facet_matching(base_gens, staircase)["face_to_face_ok"]
    overlap = staircase_cones(3) + staircase_cones(1)
    vol, cont, _, _ = _sweep(base, coordinate_rows(base), cones_from_gens(overlap))
    assert vol and cont
    assert oracle_validate_tiling(base_gens, overlap)["volume_ok"]
    facets = oracle_facet_matching(base_gens, overlap)
    assert facets["boundary_bad"] == [((1, 0),)]
    assert facets["interior_bad"] == [((1, 1),), ((1, 3),)]


def test_minimal_rays_reject_the_strip_counterexample():
    # Every unimodular tiling of a d=2 cone has each ray of the minimal one
    # (ROADMAP item 13). The doubled step of the strip example above leaves
    # out (1, 4), a ray of the base itself, so the ray check rejects it
    # without the verifier; the staircase has every ray.
    rays = minimal_2d((1, 0), (1, 4))
    overlap = staircase_cones(3) + staircase_cones(1)
    assert (1, 4) in rays
    assert (1, 4) not in {g for c in overlap for g in c}
    assert set(rays) <= {g for c in staircase_cones(4) for g in c}
