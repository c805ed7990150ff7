"""Refinement to unimodularity and the generation-length bounds."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conetri import pow2_refiner
from conetri.cone_geometry import Triangulation, half_vector, make_cone
from conetri.errors import PhaseOrderError
from conetri.p2t_engine import run_p2t
from conetri.pow2_refiner import (
    hk_bound,
    hk_exact,
    refine_isolated,
    refine_to_unimodular,
)

from conftest import (
    canonical,
    oracle_dilation,
    oracle_validate_tiling,
    staircase_cones,
)
from test_cone_geometry import random_cone_gens


def record_halvings(monkeypatch, mu):
    """Log (u, generation) for every halving point the refiner picks.

    Each split halves exactly, so a cone of multiplicity m inside the
    refinement of a 2**l cone has been halved l - log2(m) times, and the
    point that splits it belongs to generation l - log2(m) + 1.
    """
    l = mu.bit_length() - 1
    calls = []

    def recording(cone):
        u = half_vector(cone)
        calls.append((u, l - (cone.multiplicity.bit_length() - 1) + 1))
        return u

    monkeypatch.setattr(pow2_refiner, "half_vector", recording)
    return calls


def test_refine_mu2_splits_in_half():
    tri = Triangulation.trivial(make_cone([(1, 0), (1, 2)]))
    out = refine_to_unimodular(tri)
    assert canonical(out.cones) == sorted(
        [tuple(sorted(c)) for c in staircase_cones(2)]
    )


def test_refine_unit_cone_unchanged():
    base = make_cone([(1, 0), (0, 1)])
    out = refine_to_unimodular(Triangulation.trivial(base))
    assert out.cones == [base]


def test_refine_mu4_staircase():
    tri = Triangulation.trivial(make_cone([(1, 0), (1, 4)]))
    out = refine_to_unimodular(tri)
    assert canonical(out.cones) == sorted(
        [tuple(sorted(c)) for c in staircase_cones(4)]
    )


def test_refine_rejects_odd_multiplicity():
    tri = Triangulation.trivial(make_cone([(1, 0), (1, 3)]))
    with pytest.raises(PhaseOrderError):
        refine_to_unimodular(tri)


def test_half_vector_min_weight_tiebreak():
    # Mod-2 kernel of dimension 2; all nonzero combinations have weight 2,
    # and the lexicographically least indicator wins: generators 1 and 2.
    c = make_cone([(1, 1, 0), (1, -1, 0), (1, 1, 2)])
    assert c.multiplicity == 4
    assert half_vector(c) == (1, 0, 1)


def test_refine_events_halve_multiplicity(monkeypatch):
    tri = Triangulation.trivial(make_cone([(1, 0), (1, 4)]))
    halvings = record_halvings(monkeypatch, 4)
    out = refine_to_unimodular(tri)
    # Three halvings: 4 -> (2, 2) at generation 1, then each 2 -> (1, 1).
    assert halvings == [((1, 2), 1), ((1, 3), 2), ((1, 1), 2)]
    assert [c.multiplicity for c in out.cones] == [1, 1, 1, 1]


def test_hk_bound_examples():
    assert hk_bound(4, 0) == 1.0
    assert hk_bound(4, -3) == 1.0
    for d in range(2, 8):
        assert hk_bound(d, 1) == d / 2
        assert hk_exact(d, 1) == Fraction(d, 2)
        # h_2 < 3d/4 per the recurrence.
        assert hk_exact(d, 2) == Fraction(3 * d - 2, 4)
        assert hk_exact(d, 2) < Fraction(3 * d, 4)


def test_hk_sequence_nondecreasing_and_dominated():
    for d in range(2, 11):
        prev = Fraction(1)
        for k in range(1, 41):
            h = hk_exact(d, k)
            assert h >= prev
            assert float(h) <= hk_bound(d, k) + 1e-12
            prev = h


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_refine_isolated_generations(seed):
    rng = random.Random(seed)
    d = rng.choice([2, 3])
    gens = random_cone_gens(rng, d, 5)
    cone = make_cone(gens)
    mu = cone.multiplicity
    if mu & (mu - 1):
        return
    l = mu.bit_length() - 1
    with pytest.MonkeyPatch.context() as mp:
        halvings = record_halvings(mp, mu)
        tri = refine_isolated(cone)
    assert all(c.multiplicity == 1 for c in tri.cones)
    # Every branch halves l times: no point lies deeper than generation l.
    assert all(1 <= k <= l for _, k in halvings)
    # Generation-k subdivision vectors obey h_k, measured against the
    # refined cone's own simplex; finals obey the closed-form ceiling.
    for u, k in halvings:
        assert oracle_dilation(gens, u) <= hk_exact(d, k)
    for c in tri.cones:
        for g in c.generators:
            assert oracle_dilation(gens, g) <= Fraction(d, 2) * Fraction(3, 2) ** l


def test_refine_isolated_mu16_chain(monkeypatch):
    halvings = record_halvings(monkeypatch, 16)
    tri = refine_isolated(make_cone([(1, 0), (1, 16)]))
    assert len(tri.cones) == 16
    # A balanced binary tree: 2**(k-1) splits at generation k, so every
    # final cone sits at depth 4.
    gens = [k for _, k in halvings]
    assert {k: gens.count(k) for k in set(gens)} == {1: 1, 2: 2, 3: 4, 4: 8}


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_full_pipeline_tiles_exactly(seed):
    rng = random.Random(seed)
    d = rng.choice([2, 3])
    gens = random_cone_gens(rng, d, 5)
    base = make_cone(gens)
    state = run_p2t(base)
    out = refine_to_unimodular(state.triangulation)
    report = oracle_validate_tiling(gens, [c.generators for c in out.cones])
    assert report["volume_ok"]
    assert report["containment_ok"]
    assert report["all_unimodular"]


def test_refine_keeps_trace_off_by_default():
    tri = Triangulation.trivial(make_cone([(1, 0), (1, 8)]))
    out = refine_to_unimodular(tri)
    # Without history the created list is just the final tiling.
    assert out.all_created == out.cones
