"""Certificates: tiling validity, dilation bounds, trace audits."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conetri.cone_geometry import SimplicialCone, dilation, make_cone
from conetri.errors import PhaseOrderError
from conetri.number_theory import factorize, phi
from conetri.p2t_engine import TraceEvent, run_p2t
from conetri.pow2_refiner import refine_to_unimodular
from conetri.verifier import (
    audit_trace,
    certify,
    final_bounds,
    intermediate_mu_ceiling,
    max_dilation,
    upper_rational,
    verify_triangulation,
)

from conftest import oracle_dilation, staircase_cones
from test_cone_geometry import random_cone_gens


def cones_from_gens(gens_list):
    return [make_cone(g) for g in gens_list]


def test_verify_triangulation_examples():
    unit = make_cone([(1, 0), (0, 1)])
    vol, cont, flags = verify_triangulation(unit, [unit])
    assert vol and cont and flags == (True,)

    base = make_cone([(1, 0), (1, 3)])
    steps = cones_from_gens(staircase_cones(3))
    vol, cont, flags = verify_triangulation(base, steps)
    assert vol and cont and all(flags)

    vol, cont, flags = verify_triangulation(base, steps[:-1])
    assert not vol
    assert cont


def test_verify_triangulation_flags_nonunimodular():
    base = make_cone([(1, 0), (1, 4)])
    half = cones_from_gens([((1, 0), (1, 2)), ((1, 2), (1, 4))])
    vol, cont, flags = verify_triangulation(base, half)
    assert vol and cont
    assert flags == (False, False)


def test_max_dilation_examples():
    base = make_cone([(1, 0), (1, 3)])
    assert max_dilation(base, cones_from_gens(staircase_cones(3))) == 1
    unit = make_cone([(1, 0), (0, 1)])
    assert max_dilation(unit, [unit]) == 1
    with pytest.raises(PhaseOrderError):
        max_dilation(base, [base])


def test_max_dilation_full_pipeline_mu5():
    base = make_cone([(1, 0), (1, 5)])
    state = run_p2t(base)
    tri = refine_to_unimodular(state.triangulation)
    assert max_dilation(base, tri.cones) == 1


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


def test_upper_rational_dominates():
    for x in (0.1, 1.0, 1.5, 66.269, 1e-300, 12345.678):
        r = upper_rational(x)
        assert r > Fraction(x) or x == 0
        assert float(r) >= x


def test_audit_trace_pipeline_example():
    base = make_cone([(1, 0), (1, 3)])
    state = run_p2t(base)
    flags = audit_trace(base, state.trace, state.triangulation.all_created)
    assert flags == (True, True, True, True)


def test_audit_trace_vacuous():
    base = make_cone([(1, 0), (1, 2)])
    assert audit_trace(base, [], [base]) == (True, True, True, True)


def fake_cone(gens, labels):
    return SimplicialCone(gens, labels)


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

    # Multiplicity above the intermediate ceiling (here 2^3.63 ~ 12.4).
    big = fake_cone(((1, 0), (13, 16)), (-1, -2))
    assert big.multiplicity == 16
    _, _, mu_ok, _ = audit_trace(base, [], [big])
    assert not mu_ok

    # Label index beyond the phi(mu)-1 depth budget.
    deep = fake_cone(((1, 1), (1, 3)), (5, -2))
    _, depth_ok, _, xi_ok = audit_trace(base, [], [deep])
    assert not depth_ok
    assert xi_ok

    # mu = 2**22 - 1 = 3 * 23 * 89 * 683 gives phi(mu) - 1 = 34.9999993:
    # label 35 is one too deep, by less than the old 1e-6 float slack.
    wide = make_cone([(1, 0), (1, 2**22 - 1)])
    assert 35 - (phi(factorize(wide.multiplicity)) - 1) < 1e-6
    _, depth_ok, _, _ = audit_trace(wide, [], [fake_cone(((1, 0), (1, 1)), (35, -2))])
    assert not depth_ok
    _, depth_ok, _, _ = audit_trace(wide, [], [fake_cone(((1, 0), (1, 1)), (34, -2))])
    assert depth_ok

    # Label-0 vector longer than (d/2)*mu*4^0 = 3.
    long0 = fake_cone(((4, 0), (1, 3)), (0, -2))
    assert dilation(base, (4, 0)) == 4
    _, depth_ok, mu_ok, xi_ok = audit_trace(base, [], [long0])
    assert depth_ok and mu_ok
    assert not xi_ok


@pytest.mark.parametrize("d,bound", [(2, 9), (3, 5), (4, 3)])
def test_newest_labels_cover_every_trace_vector(d, bound):
    # The label-length audit reads only each created cone's newest label and
    # the generator carrying it. That covers the paper's per-label bounds
    # only if those pairs are exactly the (label, x') of the trace events.
    rng = random.Random(1000 + d)
    for _ in range(6):
        base = make_cone(random_cone_gens(rng, d, bound))
        state = run_p2t(base)
        newest = set()
        for cone in state.triangulation.all_created:
            s = cone.max_label()
            if s >= 0:
                newest.add((s, cone.generators[cone.labels.index(s)]))
        events = {(ev.new_label_index, ev.x_prime) for ev in state.trace}
        assert newest == events


def test_certify_report_mu3():
    base = make_cone([(1, 0), (1, 3)])
    state = run_p2t(base)
    tri = refine_to_unimodular(state.triangulation)
    rep = certify(base, tri, state.trace, state.triangulation.all_created)
    assert rep.volume_ok and rep.containment_ok and rep.all_unimodular
    assert rep.phi_descent_ok and rep.label_depth_ok
    assert rep.mu_bound_ok and rep.xi_length_ok
    assert rep.max_dilation == 1
    assert rep.final_bound_ok
    assert rep.final_count == 3
    assert rep.slack_ratio == pytest.approx(rep.final_bound_cor, rel=1e-9)


def test_certify_flags_bad_tiling():
    base = make_cone([(1, 0), (1, 3)])
    state = run_p2t(base)
    tri = refine_to_unimodular(state.triangulation)
    from conetri.cone_geometry import Triangulation

    broken = Triangulation(base, tri.cones[:-1], tri.cones[:-1])
    rep = certify(base, broken)
    assert not rep.volume_ok
    assert rep.containment_ok
    assert rep.final_count == 2


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_certify_random_cones(seed):
    rng = random.Random(seed)
    d = rng.choice([2, 3])
    gens = random_cone_gens(rng, d, 5)
    base = make_cone(gens)
    state = run_p2t(base)
    tri = refine_to_unimodular(state.triangulation)
    rep = certify(base, tri, state.trace, state.triangulation.all_created)
    assert rep.volume_ok and rep.containment_ok and rep.all_unimodular
    assert rep.phi_descent_ok and rep.label_depth_ok
    assert rep.mu_bound_ok and rep.xi_length_ok
    assert rep.final_bound_ok
    assert rep.max_dilation <= upper_rational(rep.final_bound_thm)
    if rep.final_bound_cor is not None:
        assert rep.max_dilation <= upper_rational(rep.final_bound_cor)
    # Oracle agreement on the worst stretch.
    worst = max(
        oracle_dilation(gens, g) for c in tri.cones for g in c.generators
    )
    assert rep.max_dilation == worst
    # Negative labels are original base generators: dilation exactly 1.
    for c in tri.cones:
        for s, vec in zip(c.labels, c.generators):
            if s < 0:
                assert oracle_dilation(gens, vec) <= 1
