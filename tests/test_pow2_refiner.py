"""Refinement to unimodularity and the generation-length bounds."""

import random
from fractions import Fraction
from functools import cache
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conetri import pow2_refiner
from conetri.cli import random_cone
from conetri.cone_geometry import _combine, _split_at, half_vector, make_cone
from conetri.errors import PhaseOrderError
from conetri.p2t_engine import _Engine, run_p2t
from conetri.pow2_refiner import refine_to_unimodular
from conetri.verifier import certify

from conftest import (
    bareiss_det,
    canonical,
    frac_solve,
    greedy_tiling,
    minimal_2d,
    oracle_dilation,
    oracle_facet_matching,
    oracle_validate_tiling,
    perm_det,
    staircase_cones,
)
from test_acceptance import campaign_cone
from test_cone_geometry import random_cone_gens


def hk_bound(d: int, k: int) -> float:
    """Closed-form ceiling (d/2) * (3/2)**(k-1) for the generation bound h_k."""
    if k <= 0:
        return 1.0
    return (d / 2.0) * 1.5 ** (k - 1)


@cache
def hk_exact(d: int, k: int) -> Fraction:
    """The recurrence h_k = (h_{k-1} + ... + h_{k-d}) / 2 with h_{<=0} = 1:
    generation-k halving points have dilation at most h_k over the refined
    cone. h_1 comes out to d/2; hk_bound dominates hk_exact for every k.
    """
    if k <= 0:
        return Fraction(1)
    return sum((hk_exact(d, k - i) for i in range(1, d + 1)), Fraction(0)) / 2


def record_halvings(monkeypatch, mu):
    """Log (u, generation) for every halving point the refiner picks.

    Each split halves exactly, so a cone of multiplicity m inside the
    refinement of a 2**l cone has been halved l - log2(m) times, and the
    point that splits it belongs to generation l - log2(m) + 1.
    """
    l = mu.bit_length() - 1
    calls = []

    def recording(cone):
        z = half_vector(cone)
        calls.append((_combine(cone, z, 2), l - (cone.multiplicity.bit_length() - 1) + 1))
        return z

    monkeypatch.setattr(pow2_refiner, "half_vector", recording)
    return calls


def test_refine_mu2_splits_in_half():
    out = refine_to_unimodular([make_cone([(1, 0), (1, 2)])])
    assert canonical(out) == sorted(
        [tuple(sorted(c)) for c in staircase_cones(2)]
    )


def test_refine_unit_cone_unchanged():
    base = make_cone([(1, 0), (0, 1)])
    out = refine_to_unimodular([base])
    assert out == [base]
    assert refine_to_unimodular([]) == []


def test_refine_mu4_staircase():
    out = refine_to_unimodular([make_cone([(1, 0), (1, 4)])])
    assert canonical(out) == sorted(
        [tuple(sorted(c)) for c in staircase_cones(4)]
    )


def test_refine_rejects_odd_multiplicity():
    with pytest.raises(PhaseOrderError):
        refine_to_unimodular([make_cone([(1, 0), (1, 3)])])


def test_half_vector_min_weight_tiebreak():
    # Mod-2 kernel of dimension 2; all nonzero combinations have weight 2,
    # and the lexicographically least indicator wins: generators 1 and 2.
    c = make_cone([(1, 1, 0), (1, -1, 0), (1, 1, 2)])
    assert c.multiplicity == 4
    z = half_vector(c)
    assert (_combine(c, z, 2), z) == ((1, 0, 1), (0, 1, 1))


def test_refine_events_halve_multiplicity(monkeypatch):
    halvings = record_halvings(monkeypatch, 4)
    out = refine_to_unimodular([make_cone([(1, 0), (1, 4)])])
    # Three halvings: 4 -> (2, 2) at generation 1, then each 2 -> (1, 1).
    assert halvings == [((1, 2), 1), ((1, 3), 2), ((1, 1), 2)]
    assert [c.multiplicity for c in out] == [1, 1, 1, 1]


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
        final = refine_to_unimodular([cone])
    assert all(c.multiplicity == 1 for c in final)
    # Every branch halves l times: no point lies deeper than generation l.
    assert all(1 <= k <= l for _, k in halvings)
    # Generation-k subdivision vectors obey h_k, measured against the
    # refined cone's own simplex; finals obey the closed-form ceiling.
    for u, k in halvings:
        assert oracle_dilation(gens, u) <= hk_exact(d, k)
    for c in final:
        for g in c.generators:
            assert oracle_dilation(gens, g) <= Fraction(d, 2) * Fraction(3, 2) ** l


def test_refine_isolated_mu16_chain(monkeypatch):
    halvings = record_halvings(monkeypatch, 16)
    final = refine_to_unimodular([make_cone([(1, 0), (1, 16)])])
    assert len(final) == 16
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
    out = refine_to_unimodular(state.triangulation.cones)
    report = oracle_validate_tiling(gens, [c.generators for c in out])
    assert report["volume_ok"]
    assert report["containment_ok"]
    assert report["all_unimodular"]


def test_full_pipeline_is_face_to_face():
    rng = random.Random(20261018)
    checked = 0
    for d, bound in [(3, 5)] * 6 + [(4, 3)] * 6:
        gens = random_cone_gens(rng, d, bound)
        base = make_cone(gens)
        if base.multiplicity > 200:
            continue
        out = refine_to_unimodular(run_p2t(base).triangulation.cones)
        facets = oracle_facet_matching(gens, [c.generators for c in out])
        assert facets["face_to_face_ok"], (gens, facets)
        checked += base.multiplicity > 1
    assert checked >= 8


def test_refine_returns_only_the_final_cones():
    base = make_cone([(1, 0), (1, 8)])
    out = refine_to_unimodular([base])
    # No history rides along: a plain list of the final tiling. The 14 cones
    # of the three halving rounds take uids 1-14, the last 8 of them final.
    assert type(out) is list
    assert [c.multiplicity for c in out] == [1] * 8
    assert sorted(c.uid for c in out) == list(range(7, 15))


def test_refine_uids_start_past_every_phase_1_uid():
    # refine_to_unimodular numbers on from the largest uid it is given.
    # run_p2t's last event's children are its newest cones and stay live,
    # so that is the largest uid phase 1 created, on every tiling.
    rng = random.Random(20261019)
    for d, bound in [(2, 6)] * 4 + [(3, 4)] * 4:
        state = run_p2t(make_cone(random_cone_gens(rng, d, bound)))
        tri = state.triangulation
        newest = max(c.uid for c in tri.all_created)
        assert max(c.uid for c in tri.cones) == newest
        uids = [c.uid for c in refine_to_unimodular(tri.cones)]
        assert len(set(uids)) == len(uids)
        assert all(u > newest for u in set(uids) - {c.uid for c in tri.cones})


def test_phase2_builds_every_cone_through_split_at():
    # Both phases replace a holder through _Engine.split, whose one child
    # builder is _split_at: every cone refine_to_unimodular creates, live or
    # final, must be a child that _split_at returned.
    made = []

    def counting_split_at(cone, x, z, p, uid_source):
        children = _split_at(cone, x, z, p, uid_source)
        made.extend(children)
        return children

    added = []
    real_add = _Engine.add

    def recording_add(self, cone):
        added.append(cone)
        real_add(self, cone)

    for gens in (
        [(-1, -3, -3), (-4, 1, 1), (5, -1, -5)],
        [(-2, 6, 1, -5), (-4, 2, 3, -6), (0, 3, -3, -1), (6, 4, -3, -1)],
    ):
        tiling = run_p2t(make_cone(gens)).triangulation.cones
        made.clear()
        added.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("conetri.p2t_engine._split_at", counting_split_at)
            mp.setattr(_Engine, "add", recording_add)
            final = refine_to_unimodular(tiling)
        inputs = {id(c) for c in tiling}
        created = [c for c in added + final if id(c) not in inputs]
        assert len(created) > 20, len(created)
        assert sorted(map(id, created)) == sorted(map(id, made))


def test_phase2_builds_each_point_through_combine(monkeypatch):
    # Phase 2 builds its point in the loop both phases share, with
    # _combine: once per halving, on the cone half_vector halved, its
    # indicator and p = 2.
    halved, combined = [], []

    def recording_half_vector(cone):
        z = half_vector(cone)
        halved.append((cone, z, 2))
        return z

    def counting_combine(cone, z, p):
        combined.append((cone, z, p))
        return _combine(cone, z, p)

    tiling = run_p2t(make_cone([(-1, -3, -3), (-4, 1, 1), (5, -1, -5)])).triangulation.cones
    monkeypatch.setattr("conetri.pow2_refiner.half_vector", recording_half_vector)
    monkeypatch.setattr("conetri.p2t_engine._combine", counting_combine)
    refine_to_unimodular(tiling)
    assert len(halved) >= 10, len(halved)
    assert combined == halved


def phase2_engine(cones, record):
    """The engine refine_to_unimodular builds on cones, run with record
    called on each split as (parent, p, z, x, children). Its `done` is
    then refine_to_unimodular's output."""
    engine = _Engine(max((c.uid for c in cones), default=-1) + 1, 1)
    engine.route(cones)
    engine.subdivide(lambda cone: (half_vector(cone), 2), record)
    return engine


def fields(cones):
    return [(c.uid, c.generators, c.labels, c.det) for c in cones]


def test_phase2_recorded_splits_replay_to_refine_output():
    # Phase 2's splits, read off the loop refine_to_unimodular runs with no
    # monkeypatch, replay to its output: start from the unimodular inputs,
    # take each split's parent out of the live cones, and finish each child
    # of multiplicity 1. Every split is at p = 2 and halves the det.
    total = 0
    for gens in (
        [(-1, -3, -3), (-4, 1, 1), (5, -1, -5)],
        [(-2, 6, 1, -5), (-4, 2, 3, -6), (0, 3, -3, -1), (6, 4, -3, -1)],
    ):
        tiling = run_p2t(make_cone(gens)).triangulation.cones
        final = refine_to_unimodular(tiling)
        splits = []
        engine = phase2_engine(tiling, lambda *split: splits.append(split))
        live = {c.uid: c for c in tiling if c.multiplicity > 1}
        replayed = [c for c in tiling if c.multiplicity == 1]
        for parent, p, z, x, children in splits:
            assert live.pop(parent.uid) is parent
            assert p == 2 and sum(z) == len(children)
            for child in children:
                assert 2 * child.det == parent.det
                assert x in child.generators
                if child.multiplicity == 1:
                    replayed.append(child)
                else:
                    live[child.uid] = child
        total += len(splits)
        assert live == {}
        assert fields(replayed) == fields(engine.done) == fields(final)
    assert total > 100, total


def test_heavy_d4_phase2_makes_98200_splits():
    # A consumer that only counts sees every split of phase 2 on the
    # benchmark's heavy-d4 cone at seed 0.
    counter = count()
    phase2_engine(run_p2t(make_cone(HEAVY_D4)).triangulation.cones, lambda *_: next(counter))
    assert next(counter) == 98_200


def test_greedy_baseline_tiles_and_passes_every_certificate():
    # ROADMAP item 9's baseline: the shortest box point, split through the
    # same cones_containing and split as both phases. On seeded d = 2, 3, 4
    # draws with mu <= 300, every greedy tiling passes all eight
    # certificates (no phase 1 trace) and the independent facet matching,
    # and in total it has fewer cones than the pipeline's tilings.
    rng = random.Random(20261023)
    greedy_cones = pipeline_cones = 0
    for d, bound, n in ((2, 12, 20), (3, 5, 20), (4, 3, 10)):
        runs = 0
        while runs < n:
            gens = random_cone_gens(rng, d, bound)
            base = make_cone(gens)
            if base.multiplicity > 300:
                continue
            runs += 1
            final = greedy_tiling(gens)
            report = certify(base, final, ())
            assert all(report.certificates), (gens, report.certificates)
            facets = oracle_facet_matching(gens, [c.generators for c in final])
            assert facets["face_to_face_ok"], gens
            greedy_cones += len(final)
            pipeline_cones += len(refine_to_unimodular(run_p2t(base).triangulation.cones))
    assert greedy_cones < pipeline_cones, (greedy_cones, pipeline_cones)


def test_bareiss_det_matches_perm_det():
    rng = random.Random(20261020)
    for d in range(1, 7):
        for _ in range(20):
            m = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(d)]
            assert bareiss_det(m) == perm_det(m)
    assert bareiss_det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1
    assert bareiss_det([[1, 2], [2, 4]]) == 0


def test_minimal_2d_is_the_minimal_unimodular_fan():
    # The minimal triangulation is the unimodular one whose every inner ray
    # v_i has v_{i-1} + v_{i+1} = b * v_i with b >= 2: with b = 1 the ray
    # could be dropped. Its vectors lie in the triangle (0, g1, g2).
    assert minimal_2d((1, 0), (1, 4)) == [(1, k) for k in range(5)]
    assert minimal_2d((1, 0), (0, 1)) == [(1, 0), (0, 1)]
    rng = random.Random(20261021)
    for _ in range(200):
        g1, g2 = random_cone_gens(rng, 2, 30)
        rays = minimal_2d(g1, g2)
        sign = 1 if perm_det([g1, g2]) > 0 else -1
        assert (rays[0], rays[-1]) == (g1, g2)
        for u, v in zip(rays, rays[1:]):
            assert perm_det([u, v]) == sign
        for u, v, w in zip(rays, rays[1:], rays[2:]):
            b, rem = divmod(u[0] + w[0], v[0]) if v[0] else divmod(u[1] + w[1], v[1])
            assert rem == 0 and b >= 2
            assert (b * v[0], b * v[1]) == (u[0] + w[0], u[1] + w[1])
        for v in rays:
            assert oracle_dilation([g1, g2], v) <= 1


def test_d2_pipeline_refines_the_minimal_triangulation():
    # ROADMAP item 13's yardstick: every unimodular triangulation of a d=2
    # cone has all the minimal one's rays, so each pipeline output must
    # contain them and have at least as many cones.
    rng = random.Random(20261022)
    runs = 0
    while runs < 150:
        gens = random_cone_gens(rng, 2, 20)
        base = make_cone(gens)
        if base.multiplicity >= 400:
            continue
        runs += 1
        final = refine_to_unimodular(run_p2t(base).triangulation.cones)
        rays = minimal_2d(*gens)
        assert set(rays) <= {g for c in final for g in c.generators}, gens
        assert len(final) >= len(rays) - 1


def phase2_hk_ratios(base):
    """Run the pipeline on base, tracking each phase 2 cone's phase 1
    ancestor P through the splits phase 2 records, as ROADMAP item 15 asks.

    Each halving point x that splits a cone descended from P belongs to
    generation k = its label - P's largest label, and its dilation over P
    must be at most h_k. Returns the worst dilation / h_k over every split
    (exact), and the deepest generation seen.
    """
    state = run_p2t(base)
    ancestor = {c.uid: c for c in state.triangulation.cones}
    # w with P's generators times w = (1, ..., 1): w . x is x's dilation.
    weights = {}
    worst = Fraction(0)
    deepest = 0
    splits = []
    phase2_engine(state.triangulation.cones, lambda *split: splits.append(split))
    for parent, _, _, x, children in splits:
        top = ancestor[parent.uid]
        for child in children:
            ancestor[child.uid] = top
        if top.uid not in weights:
            weights[top.uid] = frac_solve(top.generators, (1,) * base.dimension)
        k = children[0].max_label() - top.max_label()
        ratio = sum(w * c for w, c in zip(weights[top.uid], x)) / hk_exact(base.dimension, k)
        worst = max(worst, ratio)
        deepest = max(deepest, k)
    return worst, deepest


# Campaign d=4 draw 6 (mu 1062), the benchmark's heavy-d4 cone at seed 0.
HEAVY_D4 = ((5, -6, 6, 2), (-2, 2, 3, -1), (-5, -2, 3, -3), (4, -6, 0, 7))


# Bound-2 draws (d, i) = random_cone(d, 2, Random(1000 * d + 34 + i)) from
# the first ten at d = 6, 7 and 8 whose whole run took under about 1 s and
# made at most 100,000 cones (2 vCPU, Python 3.11). The others run for
# 2-20 s or more, or exhaust gigabytes (ROADMAP item 16).
HIGH_D_DRAWS = (
    (6, 0), (6, 2), (6, 3), (6, 4), (6, 5), (6, 6), (6, 7),
    (7, 1), (7, 6), (7, 7), (7, 8),
    (8, 8),
)


@pytest.mark.slow
def test_phase2_points_obey_hk_over_their_phase1_cone():
    # The paper's phase 2 lemma, on a full run: phase 2 halves the whole
    # phase 1 tiling at once, across phase 1 cone boundaries, and every
    # generation-k point still has dilation at most h_k over the phase 1
    # cone it lies in. The draws are random_cone(d, bound, Random(1000 * d
    # + 17 * bound + i)) for (d, bound, i), then HIGH_D_DRAWS and the first
    # twelve cones of the campaign at d = 4 (its seventh is HEAVY_D4), 2, 3
    # and 5; h_k is met with equality.
    assert campaign_cone(4, 6).generators == HEAVY_D4
    bases = (
        [make_cone(HEAVY_D4)]
        + [
            random_cone(d, bound, random.Random(1000 * d + 17 * bound + i))
            for d, bound, i in (
                (3, 6, 0), (4, 3, 0), (5, 2, 0), (6, 2, 0), (6, 2, 5), (7, 2, 0), (6, 3, 1)
            )
        ]
        + [random_cone(d, 2, random.Random(1000 * d + 34 + i)) for d, i in HIGH_D_DRAWS]
        + [campaign_cone(4, j) for j in range(12) if j != 6]
        + [campaign_cone(d, j) for d in (2, 3, 5) for j in range(12)]
    )
    worsts, deepest = [], []
    for base in bases:
        worst, k = phase2_hk_ratios(base)
        assert worst <= 1, (base.generators, worst)
        worsts.append(worst)
        deepest.append(k)
    assert max(worsts) == 1 and max(deepest) >= 11, (worsts, deepest)


@pytest.mark.slow
def test_high_dimension_corpus_passes_every_certificate():
    # The first corpus past d = 5, where halvings split many holders at
    # once and |S| reaches 6-7. Every run must pass all eight certificates
    # and the independent facet matching.
    subset_sizes = set()

    def sizing_split_at(cone, x, z, p, uid_source):
        children = _split_at(cone, x, z, p, uid_source)
        subset_sizes.add(len(children))
        return children

    for d, i in HIGH_D_DRAWS:
        base = random_cone(d, 2, random.Random(1000 * d + 34 + i))
        state = run_p2t(base)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("conetri.p2t_engine._split_at", sizing_split_at)
            final = refine_to_unimodular(state.triangulation.cones)
        report = certify(base, final, state.trace)
        assert all(report.certificates), (d, i, report.certificates)
        facets = oracle_facet_matching(base.generators, [c.generators for c in final])
        assert facets["face_to_face_ok"], (d, i)
    assert max(subset_sizes) >= 7, subset_sizes
