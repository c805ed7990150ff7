"""The power-of-two phase: coefficient rules, point search, full runs."""

import functools
import hashlib
import json
import math
import random
from collections import Counter
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule
from hypothesis import strategies as st

from conetri.cone_geometry import (
    SimplicialCone,
    _combine,
    _split_at,
    coordinate_rows,
    half_vector,
    make_cone,
    order_p_element,
    vector_content,
)
from conetri.errors import DivisibilityError
from conetri.exact_linalg import adjugate, smith_normal_form
from conetri.number_theory import ROSSER_CONSTANT, factorize, is_prime, p_max, phi
from conetri.p2t_engine import (
    TraceEvent,
    _Engine,
    adjust_coefficients,
    coefficient_ok_protected,
    find_x,
    protected_count,
    run_p2t,
)
from conetri.pow2_refiner import refine_to_unimodular
from conetri.verifier import _sweep

from conftest import (
    is_power_of_two,
    oracle_barycentric,
    oracle_facet_matching,
    oracle_smith_normal_form,
    oracle_validate_tiling,
    perm_det,
)
from test_cone_geometry import ORDER_P_PINS, random_cone_gens


def test_is_power_of_two():
    assert [n for n in range(1, 20) if is_power_of_two(n)] == [1, 2, 4, 8, 16]
    assert not is_power_of_two(0)
    assert not is_power_of_two(-4)


def test_protected_count_examples():
    # floor(ln p / 1.25506): ln 3 < tau, ln 5 and ln 7 give 1, ln 13 gives 2.
    assert protected_count(3) == 0
    assert protected_count(5) == 1
    assert protected_count(7) == 1
    assert protected_count(13) == 2


@given(st.integers(min_value=2, max_value=10**6))
def test_protected_count_matches_formula(p):
    assert protected_count(p) == int(math.log(p) / ROSSER_CONSTANT)


def test_coefficient_ok_protected_examples():
    assert coefficient_ok_protected(4, 7)  # composite
    assert not coefficient_ok_protected(5, 7)  # prime above 7/2
    assert coefficient_ok_protected(2, 3)  # the p=3 special case
    assert coefficient_ok_protected(3, 7)  # prime but 3 <= 7/2
    assert coefficient_ok_protected(2, 5)  # 2 <= 5/2
    assert coefficient_ok_protected(0, 11)
    assert coefficient_ok_protected(9, 11)
    assert not coefficient_ok_protected(7, 11)


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=3, max_value=499))
def test_coefficient_ok_protected_definition(z, p):
    if not is_prime(p) or z >= p:
        return
    expected = (not is_prime(z)) or 2 * z <= p or (z == 2 and p == 3)
    assert coefficient_ok_protected(z, p) == expected


def find_point(cone, p):
    """find_x's point, rebuilt from its coefficients, and the coefficients
    (slot order)."""
    z = find_x(cone, p)
    return _combine(cone, z, p), z


def test_find_x_examples():
    c3 = make_cone([(1, 0), (1, 3)])
    assert find_point(c3, 3) == ((1, 1), (2, 1))
    c5 = make_cone([(1, 0), (1, 5)])
    x, z = find_point(c5, 5)
    assert (x, z) == ((1, 1), (4, 1))
    # z[0] sits in the protected (newest-label) slot: 3 is rejected there.
    assert z[0] in {1, 2, 4}


def test_find_x_rejects_non_divisor():
    with pytest.raises(DivisibilityError):
        find_x(make_cone([(1, 0), (1, 4)]), 3)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_find_x_properties(seed):
    rng = random.Random(seed)
    d = rng.choice([2, 3])
    gens = random_cone_gens(rng, d, 6)
    c = make_cone(gens)
    odd = [q for q in (3, 5, 7, 11, 13) if c.multiplicity % q == 0]
    if not odd:
        return
    p = max(odd)
    x, z = find_point(c, p)
    lam = oracle_barycentric(gens, x)
    # x lies in the half-open box and has order exactly p.
    assert all(0 <= v < 1 for v in lam)
    assert all((p * v).denominator == 1 for v in lam)
    assert any(v.denominator != 1 for v in lam)
    # z is in slot order, so it is p * lam. A fresh cone's labels decrease
    # with the slot, so its first q slots are the protected ones.
    assert z == tuple(int(p * v) for v in lam)
    q = min(protected_count(p), d)
    assert all(coefficient_ok_protected(z[j], p) for j in range(q))
    assert find_point(c, p) == (x, z)


def test_find_x_returns_slot_order():
    # uid 2 of the mu15 run: its newest label sits in its last slot, so
    # slot order and label order differ.
    state = run_p2t(make_cone([(1, 0, 0), (1, 3, 0), (2, 1, 5)]))
    cone = trace_cone_index(state)[2]
    assert cone.generators == ((1, 0, 0), (1, 3, 0), (1, 1, 2))
    assert cone.labels == (-1, -2, 0)
    assert find_x(cone, 3) == (2, 1, 0)


def test_adjust_coefficients_examples():
    assert adjust_coefficients((1, 4), 5) == (1, 4)
    # 5 is prime and above 7/2, so it becomes 5 + 7 = 12 = 2^2 * 3.
    assert adjust_coefficients((1, 5), 7) == (1, 12)
    # z=2 is never rewritten.
    assert adjust_coefficients((2, 1), 3) == (2, 1)
    assert adjust_coefficients((2, 2, 2), 3) == (2, 2, 2)


def test_adjust_coefficients_repairs_any_slot():
    # Protection is find_x's job: a rejected coefficient is repaired in
    # whatever slot it sits, the protected_count(13) == 2 first ones too.
    assert not coefficient_ok_protected(7, 13)
    assert not coefficient_ok_protected(11, 13)
    assert adjust_coefficients((7, 11, 7, 11), 13) == (20, 24, 20, 24)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80)
def test_adjust_coefficients_properties(seed):
    rng = random.Random(seed)
    p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23])
    d = rng.randint(2, 6)
    z = tuple(rng.randrange(p) for _ in range(d))
    out = adjust_coefficients(z, p)
    for zj, oj in zip(z, out):
        assert oj % p == zj % p
        assert (oj == zj) == coefficient_ok_protected(zj, p)
        if oj == zj:
            continue
        # Rewritten entries are 2^s * t with t odd and harmless.
        t = oj
        while t % 2 == 0:
            t //= 2
        assert t % 2 == 1 and oj != t
        assert 3 * t <= 2 * p or (not is_prime(t) and t < p)


def test_run_p2t_power_of_two_base_is_untouched():
    base = make_cone([(1, 0), (1, 2)])
    state = run_p2t(base)
    assert state.trace == []
    assert state.triangulation.cones == [base]
    assert state.triangulation.all_created == [base]


def test_run_p2t_mu3_single_event():
    base = make_cone([(1, 0), (1, 3)])
    state = run_p2t(base)
    assert len(state.trace) == 1
    ev = state.trace[0]
    assert ev.parent_id == base.uid
    assert ev.p == 3
    assert ev.z == (2, 1) and ev.z_prime == (2, 1)
    assert ev.x_prime == (1, 1)
    assert ev.new_label_index == 0
    assert ev.mu_parent == 3 and ev.mu_children == (2, 1)
    assert sorted(c.multiplicity for c in state.triangulation.cones) == [1, 2]


def test_run_p2t_mu5_single_event():
    base = make_cone([(1, 0), (1, 5)])
    state = run_p2t(base)
    assert len(state.trace) == 1
    assert sorted(c.multiplicity for c in state.triangulation.cones) == [1, 4]
    assert all(is_power_of_two(c.multiplicity) for c in state.triangulation.cones)


def test_run_p2t_multi_cone_subdivision():
    # A d=3 cone whose run subdivides several cones at one point. Pinned so
    # the neighbor-event path (z read off the shared face) stays exercised.
    from conetri.cli import random_cone

    base = random_cone(3, 6, random.Random(6))
    assert base.generators == ((6, 3, -5), (1, 6, -2), (-3, -3, -2))
    assert base.multiplicity == 159
    state = run_p2t(base)
    groups = Counter((e.x_prime, e.p) for e in state.trace)
    assert groups[((-1, 0, -2), 3)] == 2
    assert groups[((2, 3, -5), 3)] == 4
    assert all(is_power_of_two(c.multiplicity) for c in state.triangulation.cones)


def trace_cone_index(state):
    return {c.uid: c for c in state.triangulation.all_created}


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_run_p2t_random_campaign(seed):
    rng = random.Random(seed)
    d = rng.choice([2, 3])
    gens = random_cone_gens(rng, d, 5)
    base = make_cone(gens)
    state = run_p2t(base)
    tri = state.triangulation
    assert all(is_power_of_two(c.multiplicity) for c in tri.cones)
    report = oracle_validate_tiling(gens, [c.generators for c in tri.cones])
    assert report["containment_ok"] and report["volume_ok"]

    by_uid = trace_cone_index(state)
    phi_base = phi(factorize(base.multiplicity))
    for ev in state.trace:
        parent = by_uid[ev.parent_id]
        # x' = (1/p) sum z'_j g_j in the parent's storage order.
        for i in range(d):
            assert ev.p * ev.x_prime[i] == sum(
                zp * g[i] for zp, g in zip(ev.z_prime, parent.generators)
            )
        assert ev.z == tuple(v % ev.p for v in ev.z_prime)
        # Child multiplicities: mu(parent) * z'_j / p per replaced slot.
        expected = [
            ev.mu_parent * zp // ev.p for zp in ev.z_prime if zp != 0
        ]
        assert list(ev.mu_children) == expected
        phi_parent = phi(factorize(ev.mu_parent))
        for mu_child in ev.mu_children:
            assert phi(factorize(mu_child)) <= phi_parent - 1 + 1e-6
    # Label depth across everything ever created.
    for cone in tri.all_created:
        assert cone.max_label() <= phi_base - 1 + 1e-6 or cone is base


def test_engine_owns_its_live_set():
    # An engine starts empty with the uid it is given, add queues cones in
    # order, and its live map, oldest first, is the queue: a split cone
    # leaves it, and the oldest live cone is its first value.
    engine = _Engine(5, 1)
    assert engine.cones == {} and engine.ray_index == {} and engine.done == []
    tiling = run_p2t(make_cone([(1, 0), (1, 3)])).triangulation.cones
    halved, other = sorted(tiling, key=lambda c: c.multiplicity, reverse=True)
    assert (halved.multiplicity, other.multiplicity) == (2, 1)
    engine.add(halved)
    engine.add(other)
    assert list(engine.cones.values()) == [halved, other]
    z = half_vector(halved)
    children = engine.split(halved, _combine(halved, z, 2), z, 2)
    assert [c.uid for c in children] == [5, 6]
    assert list(engine.cones.values()) == [other]
    assert all(halved.uid not in bucket for bucket in engine.ray_index.values())
    for child in children:
        engine.add(child)
    assert list(engine.cones.values()) == [other, *children]


def test_engine_routes_by_its_finished_rule():
    # route appends each cone whose multiplicity is a power of two no
    # larger than top to done, and queues every other one live, both in
    # input order.
    mus = (1, 2, 3, 4, 6)
    cones = [SimplicialCone(((1, 0), (1, m)), (-1, -2), uid, m) for uid, m in enumerate(mus)]
    for top, done in ((1, [1]), (math.inf, [1, 2, 4]), (2, [1, 2])):
        engine = _Engine(1, top)
        engine.route(cones)
        assert [c.multiplicity for c in engine.done] == done
        live = [c.multiplicity for c in engine.cones.values()]
        assert live == [m for m in mus if m not in done]


def exhaustive_cones_containing():
    """Reference for _Engine.cones_containing: test every live cone, with
    x's coefficients over it from a fresh adjugate of its generator matrix
    rather than moved over from the producer's z. Each generator tuple's
    adjugate is computed once per reference."""
    fresh_adjugate = functools.cache(lambda gens: adjugate(tuple(zip(*gens))))

    def scan(engine, producer, z, p=None):
        # The point x = (1/p) * sum z_g * g over the producer: p as given,
        # else run_p2t's p, or 2 for a power-of-two producer in
        # refine_to_unimodular.
        if p is None:
            p = p_max(factorize(producer.multiplicity))
        x = _combine(producer, z, p)
        px = [sum(c * g[i] for c, g in zip(z, producer.generators)) for i in range(len(x))]
        assert px == [p * xi for xi in x]
        out = []
        for uid in sorted(engine.cones):
            cone = engine.cones[uid]
            adj = fresh_adjugate(cone.generators)
            nums = tuple(sum(a * c for a, c in zip(row, x)) for row in adj)
            sign = 1 if cone.det > 0 else -1
            if all(n * sign >= 0 for n in nums):
                # Coefficients are p times the coordinates nums / det.
                coeffs = []
                for n in nums:
                    c, rem = divmod(p * n, cone.det)
                    assert rem == 0
                    coeffs.append(c)
                if cone is producer:
                    assert tuple(coeffs) == z
                out.append((cone, tuple(coeffs)))
        return out

    return scan


def ray_index_cases():
    """Seeded d = 2 to 5 bases with multiplicity at most 200 (60 at d = 5)."""
    rng = random.Random(20261018)
    cases = []
    for d, bound, n, cap in ((2, 9, 8, 200), (3, 5, 8, 200), (4, 3, 6, 200), (5, 2, 4, 60)):
        while sum(len(g) == d for g in cases) < n:
            gens = random_cone_gens(rng, d, bound)
            if abs(perm_det(gens)) <= cap:
                cases.append(gens)
    return cases


def test_find_x_protects_the_newest_labels_on_every_producer():
    # The slots of the protected_count(p) newest labels hold acceptable
    # coefficients, which adjust_coefficients then leaves alone.
    checked = Counter()

    def checked_find_x(cone, p):
        z = find_x(cone, p)
        q = protected_count(p)
        newest = sorted(range(len(z)), key=lambda s: cone.labels[s], reverse=True)[:q]
        out = adjust_coefficients(z, p)
        for s in newest:
            assert coefficient_ok_protected(z[s], p)
            assert out[s] == z[s]
        checked[min(q, len(z))] += 1
        return z

    for gens in ray_index_cases():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("conetri.p2t_engine.find_x", checked_find_x)
            run_p2t(make_cone(gens))
    assert checked[0] and checked[1] and checked[2], checked


def snapshot(cones):
    return [(c.generators, c.det, c.labels) for c in cones]


def test_ray_index_matches_exhaustive_scan():
    # Dual route: the ray-index candidates with coefficients moved over
    # from the producer must change neither phase; both find their holders
    # through cones_containing. The index is keyed by generator vector, not by
    # primitive direction, so the runs must add non-primitive generators in
    # both phases.
    added = []
    real_add = _Engine.add

    def recording_add(self, cone):
        added.extend(cone.generators)
        real_add(self, cone)

    nonprimitive = Counter()
    for gens in ray_index_cases():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Engine, "add", recording_add)
            added.clear()
            fast = run_p2t(make_cone(gens))
            nonprimitive["p2t"] += any(vector_content(g) > 1 for g in added)
            added.clear()
            fast_final = refine_to_unimodular(fast.triangulation.cones)
            nonprimitive["refine"] += any(vector_content(g) > 1 for g in added)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Engine, "cones_containing", exhaustive_cones_containing())
            slow = run_p2t(make_cone(gens))
            slow_final = refine_to_unimodular(slow.triangulation.cones)
        assert fast.trace == slow.trace
        assert snapshot(fast.triangulation.cones) == snapshot(slow.triangulation.cones)
        assert snapshot(fast_final) == snapshot(slow_final)
    assert nonprimitive["p2t"] and nonprimitive["refine"], nonprimitive


class EngineUnderAnySplitOrder(RuleBasedStateMachine):
    """The engine's invariants under split orders the pipeline never makes.

    A seeded small base (d = 2 to 4, mu <= 60) goes into an engine that
    finishes unimodular cones only. Each step splits every holder of a
    point of a live cone, chosen in any order: an order-p point, for any
    prime p of the cone's det and any multiple, or the halving point of a
    power-of-two cone. After each step, cones_containing agrees with an
    exhaustive scan on every live cone's order-p points, the ray index is
    the one rebuilt from the live map, which is in uid order, and the live
    and finished cones tile the base face to face with the right volume.
    """

    @initialize(seed=st.integers(min_value=0, max_value=10**6))
    def start(self, seed):
        rng = random.Random(seed)
        d = rng.choice((2, 3, 4))
        while True:
            gens = random_cone_gens(rng, d, {2: 9, 3: 5, 4: 3}[d])
            if 1 < abs(perm_det(gens)) <= 60:
                break
        self.base = make_cone(gens)
        self.engine = _Engine(1, 1)
        self.engine.route([self.base])
        self.scan = exhaustive_cones_containing()

    def live(self, keep=lambda cone: True):
        """The live cones that pass keep, in uid order."""
        return [c for _, c in sorted(self.engine.cones.items()) if keep(c)]

    def split_holders(self, cone, z, p):
        x = _combine(cone, z, p)
        for parent, moved in self.engine.cones_containing(cone, z):
            self.engine.route(self.engine.split(parent, x, moved, p))

    @precondition(lambda self: self.engine.cones)
    @rule(data=st.data())
    def split_at_an_order_p_point(self, data):
        cone = data.draw(st.sampled_from(self.live()))
        p = data.draw(st.sampled_from([q for q, _ in factorize(cone.multiplicity).factors]))
        j = data.draw(st.integers(min_value=1, max_value=p - 1))
        self.split_holders(cone, tuple(j * c % p for c in order_p_element(cone, p)), p)

    @precondition(lambda self: self.live(lambda c: is_power_of_two(c.multiplicity)))
    @rule(data=st.data())
    def halve_a_power_of_two_cone(self, data):
        cone = data.draw(st.sampled_from(self.live(lambda c: is_power_of_two(c.multiplicity))))
        self.split_holders(cone, half_vector(cone), 2)

    @precondition(lambda self: not self.engine.cones)
    @rule()
    def every_cone_is_finished(self):
        # Once no cone is live, the tiling is unimodular.
        assert all(c.multiplicity == 1 for c in self.engine.done)

    @invariant()
    def holders_match_an_exhaustive_scan(self):
        for cone in self.live():
            for p, _ in factorize(cone.multiplicity).factors:
                z = order_p_element(cone, p)
                expected = self.scan(self.engine, cone, z, p)
                assert self.engine.cones_containing(cone, z) == expected

    @invariant()
    def ray_index_is_the_live_sets_own(self):
        # No empty bucket and no stale uid, and the live map is in uid order.
        rebuilt = {}
        for uid, cone in self.engine.cones.items():
            for g in cone.generators:
                rebuilt.setdefault(g, set()).add(uid)
        assert self.engine.ray_index == rebuilt
        assert list(self.engine.cones) == sorted(self.engine.cones)

    @invariant()
    def cones_tile_the_base(self):
        cones = self.live() + self.engine.done
        facets = oracle_facet_matching(self.base.generators, [c.generators for c in cones])
        assert facets["face_to_face_ok"]
        volume_ok, containment_ok, _, _ = _sweep(self.base, coordinate_rows(self.base), cones)
        assert volume_ok and containment_ok


TestEngineUnderAnySplitOrder = EngineUnderAnySplitOrder.TestCase
TestEngineUnderAnySplitOrder.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)


class EngineUnderLongSplitOrders(EngineUnderAnySplitOrder):
    """The same machine with a larger budget: more bases, longer runs."""


TestEngineUnderLongSplitOrders = pytest.mark.slow(EngineUnderLongSplitOrders.TestCase)
TestEngineUnderLongSplitOrders.settings = settings(
    max_examples=300, stateful_step_count=30, deadline=None
)


def test_phase2_finds_its_holders_through_cones_containing():
    # One containment path for both phases: every halving asks
    # cones_containing exactly once, for the cone half_vector halved and
    # its 0/1 indicator, and every coefficient vector it moves into a
    # holder's slots is 0/1 with the same number of ones.
    halved, asked = [], []
    shared = [0]
    real_cones_containing = _Engine.cones_containing

    def recording_half_vector(cone):
        z = half_vector(cone)
        halved.append((cone.uid, z))
        return z

    def checked_cones_containing(engine, producer, z):
        holders = real_cones_containing(engine, producer, z)
        asked.append((producer.uid, z))
        for _, moved in holders:
            assert set(moved) <= {0, 1} and sum(moved) == sum(z), (z, moved)
        shared[0] = max(shared[0], len(holders))
        return holders

    for gens in ray_index_cases():
        tiling = run_p2t(make_cone(gens)).triangulation.cones
        halved.clear()
        asked.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("conetri.pow2_refiner.half_vector", recording_half_vector)
            mp.setattr(_Engine, "cones_containing", checked_cones_containing)
            refine_to_unimodular(tiling)
        assert asked == halved
    assert shared[0] > 1, shared


def d5_pin_bases():
    """The distinct d = 5 ORDER_P_PINS cones, in pin order."""
    bases = []
    for gens, _, _ in ORDER_P_PINS:
        if len(gens) == 5 and gens not in bases:
            bases.append(gens)
    return bases


def test_phase1_live_set_holds_only_cones_with_an_odd_factor():
    # p divides every holder's det, so a power-of-two cone is never split
    # again: run_p2t puts such children straight into its tiling and adds
    # only the others to the engine.
    added = []
    real_add = _Engine.add

    def recording_add(self, cone):
        added.append(cone)
        real_add(self, cone)

    checked = 0
    for gens in ray_index_cases() + d5_pin_bases():
        base = make_cone(gens)
        added.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Engine, "add", recording_add)
            state = run_p2t(base)
        if is_power_of_two(base.multiplicity):
            assert added == []
            continue
        assert added[0] is base
        for cone in added[1:]:
            assert not is_power_of_two(cone.multiplicity), cone
        checked += len(added) - 1
        # Every cone of the tiling was created, and none was ever live.
        live = {id(c) for c in added}
        assert not any(id(c) in live for c in state.triangulation.cones)
    assert checked > 1000, checked


def test_no_finished_cone_contains_a_later_point():
    # test_ray_index_matches_exhaustive_scan's oracle scans the live cones
    # only, and finished power-of-two cones are no longer among them. So
    # check them here: no cone of the final tiling that existed when a
    # round began contains that round's point, by a fresh adjugate. A
    # round's events are consecutive and share (p, x'); the cones made by
    # its earlier holders hold x' as a generator, so a cone existed when
    # the round began iff its uid is below the round's first child's.
    pairs = rounds = 0
    for gens in ray_index_cases():
        state = run_p2t(make_cone(gens))
        final = [(c.uid, c.det, adjugate(c.matrix())) for c in state.triangulation.cones]
        point = None
        for ev in state.trace:
            if (ev.p, ev.x_prime) == point:
                continue
            point = (ev.p, ev.x_prime)
            rounds += 1
            first_child = ev.children_ids[0]
            for uid, det, adj in final:
                if uid >= first_child:
                    continue
                pairs += 1
                sign = 1 if det > 0 else -1
                nums = [sign * sum(map(mul, row, ev.x_prime)) for row in adj]
                assert min(nums) < 0, (uid, ev)
    assert rounds > 100 and pairs > 1000, (rounds, pairs)


def test_stored_dets_match_an_independent_determinant():
    # The engine never recomputes a det: a child's is its parent's
    # numerator in the replaced slot (half its parent's in phase 2), and
    # every certificate reads it. Check it, sign included, against perm_det
    # on every cone either phase splits, every cone phase 1 creates and
    # every cone phase 2 outputs. Also check the claim that no split point
    # is one of the split cone's generators, for run_p2t's split point in
    # phase 1 and for the halving point in phase 2: such a split would copy
    # its parent. Both phases build their children in _split_at.
    real_split_at = _split_at
    splits = {"p2t": Counter(), "refine": Counter()}
    phase = "p2t"

    def checked_split_at(cone, x, z, p, uid_source):
        assert x not in cone.generators
        assert cone.det == perm_det(cone.generators)
        splits[phase][len(x)] += 1
        return real_split_at(cone, x, z, p, uid_source)

    for gens in ray_index_cases():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("conetri.p2t_engine._split_at", checked_split_at)
            phase = "p2t"
            state = run_p2t(make_cone(gens))
            phase = "refine"
            final = refine_to_unimodular(state.triangulation.cones)
        for c in state.triangulation.all_created + final:
            assert c.det == perm_det(c.generators)
    assert sorted(splits["p2t"]) == [2, 3, 4, 5]
    assert sorted(splits["refine"]) == [2, 3, 4, 5]


def test_trace_event_is_frozen():
    ev = TraceEvent(0, 3, (2, 1), (2, 1), (1, 1), 0, (1, 2), 3, (2, 1))
    with pytest.raises(AttributeError):
        ev.p = 5


# SHA-256 over the full phase 1 history of the d = 5 ORDER_P_PINS cones (mu
# 2064, 17486, 552, 2070): each final cone's generators, labels, uid and
# det, the uids of all_created, and every TraceEvent field. Criterion 10
# pins d <= 4 only. A change here is a change of the subdivision.
D5_HISTORY_DIGEST = "61404c7f6ff0b5c505a142fa8833d00d14133616ccc645695722959fb6d86cba"
TRACE_FIELDS = (
    "parent_id",
    "p",
    "z",
    "z_prime",
    "x_prime",
    "new_label_index",
    "children_ids",
    "mu_parent",
    "mu_children",
)


@pytest.fixture(scope="module")
def d5_runs():
    """run_p2t on each distinct d = 5 ORDER_P_PINS cone, recording every
    matrix it hands to smith_normal_form: (states, matrices)."""
    import conetri.cone_geometry as cone_geometry

    bases = []
    for gens, _, _ in ORDER_P_PINS:
        if len(gens) == 5 and gens not in bases:
            bases.append(gens)
    matrices = []
    real_snf = cone_geometry.smith_normal_form

    def recording_snf(m):
        matrices.append(m)
        return real_snf(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cone_geometry, "smith_normal_form", recording_snf)
        states = [run_p2t(make_cone(gens)) for gens in bases]
    return states, matrices


def test_d5_phase1_history_pinned(d5_runs):
    states, _ = d5_runs
    assert TRACE_FIELDS == TraceEvent._fields
    assert [s.triangulation.base.multiplicity for s in states] == [2064, 17486, 552, 2070]
    digest = hashlib.sha256()
    for state in states:
        tri = state.triangulation
        doc = {
            "final": [[c.generators, c.labels, c.uid, c.det] for c in tri.cones],
            "created": [c.uid for c in tri.all_created],
            "trace": [[getattr(ev, f) for f in TRACE_FIELDS] for ev in state.trace],
        }
        digest.update(json.dumps(doc).encode())
    assert digest.hexdigest() == D5_HISTORY_DIGEST


def test_smith_normal_form_matches_reference_on_d5_runs(d5_runs):
    _, matrices = d5_runs
    assert len(matrices) > 1000
    for m in matrices:
        diag, rmat = oracle_smith_normal_form(m)
        assert smith_normal_form(m) == (diag, tuple(row[-1] for row in rmat))
