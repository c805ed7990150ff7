"""Cone construction, coordinates, and the subdivision primitives."""

import random
from fractions import Fraction
from itertools import count, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conetri.cone_geometry import (
    SimplicialCone,
    _combine,
    _split_at,
    coordinate_rows,
    half_vector,
    make_cone,
    order_p_element,
    primitive_direction,
    vector_content,
)
from conetri.errors import (
    DimensionError,
    DivisibilityError,
    PrimitivityError,
    SingularMatrixError,
)
from conetri.exact_linalg import nullspace_mod2
from conetri.number_theory import factorize

from conftest import (
    OutsideConeError,
    dilation,
    even_subsets,
    labelled_cone,
    oracle_barycentric,
    oracle_dilation,
    oracle_half_vector,
    oracle_nullspace_mod2,
    oracle_numerators,
    perm_det,
)


def random_cone_gens(rng, d, bound):
    while True:
        gens = [
            [rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)
        ]
        if any(vector_content(g) == 0 for g in gens):
            continue
        gens = [list(primitive_direction(g)) for g in gens]
        if perm_det(gens) != 0:
            return [tuple(g) for g in gens]


def order_p_point(cone, p):
    """order_p_element's point, rebuilt from its box coefficients z, and z."""
    z = order_p_element(cone, p)
    return _combine(cone, z, p), z


def half_point(cone):
    """half_vector's point u, built from its indicator z, and z, after
    checking z: 0/1 in slot order, nonzero, and picking generators that sum
    to 2u."""
    z = half_vector(cone)
    u = _combine(cone, z, 2)
    assert len(z) == cone.dimension and set(z) <= {0, 1} and any(z)
    picked = [g for g, c in zip(cone.generators, z) if c]
    assert tuple(map(sum, zip(*picked))) == tuple(2 * c for c in u)
    return u, z


def test_make_cone_basics():
    c = make_cone([(1, 0), (0, 1)])
    assert c.multiplicity == 1
    assert c.labels == (-1, -2)
    assert c.max_label() == -1
    assert make_cone([(1, 0), (1, 2)]).multiplicity == 2
    assert make_cone([(1, 0, 0), (0, 1, 0), (1, 1, 2)]).multiplicity == 2


def test_make_cone_rejects_bad_input():
    with pytest.raises(PrimitivityError):
        make_cone([(1, 0), (2, 4)])
    with pytest.raises(SingularMatrixError):
        make_cone([(1, 2), (-1, -2)])
    with pytest.raises(DimensionError):
        make_cone([(1, 0)])
    with pytest.raises(DimensionError):
        make_cone([(1, 0, 0), (0, 1, 0)])


@pytest.mark.parametrize("entry", [1.7, 1.0, "3", True, False])
def test_make_cone_rejects_a_non_integer_entry(entry):
    # int() would truncate 1.7 and accept True and "3".
    with pytest.raises(TypeError, match=f"generator entry {entry!r} "):
        make_cone([(entry, 0), (0, 1)])


def test_make_cone_accepts_any_integer_type():
    class Two:
        def __index__(self):
            return 2

    c = make_cone([(Two(), 1), (0, 1)])
    assert c.generators == ((2, 1), (0, 1))
    assert type(c.generators[0][0]) is int
    assert c.multiplicity == 2


def coordinates(cone, x):
    """x's barycentric coordinates over the cone, read off coordinate_rows."""
    return tuple(
        Fraction(sum(map(int.__mul__, row, x)), cone.multiplicity)
        for row in coordinate_rows(cone)
    )


def test_barycentric_examples():
    c = make_cone([(1, 0), (1, 2)])
    assert coordinates(c, (1, 1)) == (Fraction(1, 2), Fraction(1, 2))
    assert coordinates(c, (1, 0)) == (1, 0)
    assert coordinates(c, (2, 2)) == (1, 1)
    c3 = make_cone([(1, 0), (1, 3)])
    assert coordinates(c3, (1, 1)) == (Fraction(2, 3), Fraction(1, 3))
    # The same cone with det < 0: the rows carry sign(det).
    flipped = make_cone([(1, 3), (1, 0)])
    assert flipped.det == -c3.det
    assert coordinates(flipped, (1, 1)) == (Fraction(1, 3), Fraction(2, 3))


def test_contains_examples():
    # x lies in the closed cone exactly when no coordinate is negative.
    def inside(cone, x):
        return min(coordinates(cone, x)) >= 0

    for c in (make_cone([(1, 0), (1, 3)]), make_cone([(1, 3), (1, 0)])):
        assert inside(c, (1, 1))
        assert inside(c, (0, 0))
        assert inside(c, (1, 0))
        assert not inside(c, (-1, 0))
        assert not inside(c, (0, 1))


def test_dilation_examples():
    unit = make_cone([(1, 0), (0, 1)])
    assert dilation(unit, (1, 1)) == 2
    assert dilation(unit, (0, 0)) == 0
    c = make_cone([(1, 0), (1, 3)])
    assert dilation(c, (1, 2)) == 1
    assert dilation(c, (2, 3)) == 2
    with pytest.raises(OutsideConeError):
        dilation(c, (0, 1))


def test_order_p_element_examples():
    c2 = make_cone([(1, 0), (1, 2)])
    assert order_p_point(c2, 2)[0] == (1, 1)
    c3 = make_cone([(1, 0), (1, 3)])
    x, z = order_p_point(c3, 3)
    assert z == tuple(v * 3 for v in oracle_barycentric(c3.generators, x))
    assert z in {(1, 2), (2, 1)}
    unit = make_cone([(1, 0), (0, 1)])
    with pytest.raises(DivisibilityError):
        order_p_element(unit, 2)
    with pytest.raises(DivisibilityError):
        order_p_element(c2, 3)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60)
def test_order_p_element_properties(seed):
    rng = random.Random(seed)
    d = rng.choice([2, 3, 4])
    gens = random_cone_gens(rng, d, 6)
    c = make_cone(gens)
    if c.multiplicity == 1:
        return
    for p, _ in factorize(c.multiplicity).factors:
        x, z = order_p_point(c, p)
        lam = oracle_barycentric(gens, x)
        assert all(0 <= v < 1 for v in lam)
        # p*x is in the generator lattice, x itself is not.
        assert all((p * v).denominator == 1 for v in lam)
        assert any(v.denominator != 1 for v in lam)
        # z are x's box coefficients in slot order.
        assert z == tuple(p * v for v in lam)
        # Determinism.
        assert order_p_point(c, p) == (x, z)


# (generators, p, order_p_element) for seeded d = 3-5 cones, taken from the
# implementation that built the point from the inverse of SNF's row
# transform. The point feeds the subdivision, so it must not move.
ORDER_P_PINS = [
    ([(5, 1, 2), (-2, 4, 5), (-5, -2, -4)], 3, (-3, 2, 2)),
    ([(5, 1, 2), (-2, 4, 5), (-5, -2, -4)], 5, (-2, -1, -2)),
    ([(-5, 1, 1), (-5, -2, -4), (-4, -1, -3)], 2, (-7, -1, -3)),
    ([(-5, 1, 1), (-5, -2, -4), (-4, -1, -3)], 3, (-8, -1, -3)),
    ([(-1, -3, -3), (-4, 1, 1), (5, -1, -5)], 2, (2, -2, -4)),
    ([(-1, -3, -3), (-4, 1, 1), (5, -1, -5)], 13, (-4, -1, -1)),
    ([(-2, 3, -3), (0, -1, -6), (4, 0, -5)], 2, (1, 1, -7)),
    ([(-2, 6, 1, -5), (-4, 2, 3, -6), (0, 3, -3, -1), (6, 4, -3, -1)], 5, (0, 7, -1, -7)),
    ([(-2, 6, 1, -5), (-4, 2, 3, -6), (0, 3, -3, -1), (6, 4, -3, -1)], 19, (-4, 9, 0, -9)),
    ([(-3, 0, 1, -3), (-2, 1, 5, 5), (-1, 4, 6, -1), (-4, 4, -2, 5)], 7, (-2, 3, 7, 3)),
    ([(-3, 0, 1, -3), (-2, 1, 5, 5), (-1, 4, 6, -1), (-4, 4, -2, 5)], 17, (-3, 2, 1, 1)),
    ([(-6, 3, 5, 3), (-6, 3, 5, 5), (4, 1, 2, -4), (-2, -3, 2, 1)], 2, (-6, 3, 5, 4)),
    ([(-6, 3, 5, 3), (-6, 3, 5, 5), (4, 1, 2, -4), (-2, -3, 2, 1)], 67, (-4, 0, 7, 2)),
    ([(2, 3, -6, -5), (-6, 3, -3, -2), (1, 3, 2, -3), (-6, -1, 2, 3)], 2, (-2, 1, -2, -1)),
    ([(4, -1, -1, -5, 4), (-6, -1, 0, -5, -4), (4, -2, -4, -4, 3), (3, 0, -5, -3, -5), (4, 4, 2, -6, -1)], 3, (0, -2, -2, -8, 1)),
    ([(4, -1, -1, -5, 4), (-6, -1, 0, -5, -4), (4, -2, -4, -4, 3), (3, 0, -5, -3, -5), (4, 4, 2, -6, -1)], 43, (8, 1, -5, -13, -1)),
    ([(4, -2, 1, 6, 6), (-4, 6, -4, -6, 5), (1, 6, 4, -4, -4), (2, -4, 6, 0, -3), (3, 3, -2, -6, -1)], 7, (5, 3, 6, 0, 1)),
    ([(4, -2, 1, 6, 6), (-4, 6, -4, -6, 5), (1, 6, 4, -4, -4), (2, -4, 6, 0, -3), (3, 3, -2, -6, -1)], 1249, (4, 0, 3, -2, 1)),
    ([(0, -4, 1, 5, 5), (6, 1, -1, 4, -4), (6, -4, 1, 5, 5), (0, 3, -3, -2, -6), (-4, -1, 3, 1, 1)], 3, (2, -4, 1, 5, 5)),
    ([(0, -4, 1, 5, 5), (6, 1, -1, 4, -4), (6, -4, 1, 5, 5), (0, 3, -3, -2, -6), (-4, -1, 3, 1, 1)], 23, (4, -2, 0, 7, -1)),
    ([(-5, -5, 2, 1, 6), (1, -2, 5, 1, -6), (-2, 4, -1, -5, 3), (3, -3, 2, 6, -2), (-3, -1, 0, 4, 6)], 5, (-2, -1, 3, 3, 2)),
]


@pytest.mark.parametrize("gens, p, want", ORDER_P_PINS)
def test_order_p_element_pinned(gens, p, want):
    assert order_p_point(make_cone(gens), p)[0] == want


def split(cone, x, uid_source=None):
    """_split_at at x, with the oracle's numerators as coefficients over
    the denominator det, so that det/p * z are the numerators again."""
    nums = oracle_numerators(cone.generators, x)
    return _split_at(cone, tuple(x), nums, cone.det, uid_source or repeat(0))


def test_stellar_subdivide_examples():
    unit = make_cone([(1, 0), (0, 1)])
    kids = split(unit, (1, 1))
    assert [k.generators for k in kids] == [
        ((1, 1), (0, 1)),
        ((1, 0), (1, 1)),
    ]
    assert [k.multiplicity for k in kids] == [1, 1]
    c = make_cone([(1, 0), (1, 3)])
    kids = split(c, (1, 1))
    assert sorted(k.multiplicity for k in kids) == [1, 2]


def test_stellar_subdivide_labels():
    c = make_cone([(1, 0), (1, 3)])
    kids = split(c, (1, 1), uid_source=count(1))
    for k in kids:
        assert k.generators[k.labels.index(0)] == (1, 1)
        assert k.max_label() == 0
    assert kids[0].labels == (0, -2)
    assert kids[1].labels == (-1, 0)
    assert kids[0].uid == 1 and kids[1].uid == 2


def test_stellar_subdivide_ray_multiple_replaces():
    # A point further out on a generator ray: single child, generator swapped.
    c = make_cone([(1, 0), (1, 3)])
    kids = split(c, (2, 0))
    assert len(kids) == 1
    assert kids[0].generators == ((2, 0), (1, 3))
    assert kids[0].multiplicity == 6


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80)
def test_stellar_subdivide_multiplicities_split(seed):
    rng = random.Random(seed)
    d = rng.choice([2, 3])
    gens = random_cone_gens(rng, d, 5)
    c = make_cone(gens)
    # Random interior-ish lattice point.
    coeffs = [rng.randint(0, 2) for _ in range(d)]
    x = tuple(
        sum(cf * g[i] for cf, g in zip(coeffs, c.generators)) for i in range(d)
    )
    if all(v == 0 for v in x) or x in c.generators:
        return
    kids = split(c, x)
    lam = oracle_barycentric(gens, x)
    expected = sorted(
        abs(v * perm_det(gens)) for v in lam if v > 0
    )
    assert sorted(k.multiplicity for k in kids) == expected
    # Cramer's rule: each child's stored det is its own, sign included.
    for k in kids:
        assert perm_det(k.generators) == k.det


def test_half_vector_examples():
    assert half_point(make_cone([(1, 0), (1, 2)])) == ((1, 1), (1, 1))
    with pytest.raises(DivisibilityError, match="2 does not divide multiplicity 1"):
        half_vector(make_cone([(1, 0), (0, 1)]))
    assert half_point(make_cone([(1, 0), (1, 4)])) == ((1, 2), (1, 1))
    with pytest.raises(DivisibilityError, match="2 does not divide multiplicity 3"):
        half_vector(make_cone([(1, 0), (1, 3)]))
    assert half_vector(labelled_cone([(1, 0), (0, 2)], (-1, -2))) == (0, 1)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80)
def test_half_vector_properties(seed):
    rng = random.Random(seed)
    d = rng.choice([2, 3])
    gens = random_cone_gens(rng, d, 6)
    c = make_cone(gens)
    if c.multiplicity % 2 == 1:
        with pytest.raises(DivisibilityError):
            half_vector(c)
    else:
        u, z = half_point(c)
        lam = oracle_barycentric(gens, u)
        assert set(lam) <= {Fraction(0), Fraction(1, 2)}
        assert sum(lam) > 0
        # z is 1 exactly where u's coordinates are 1/2: u's coefficients
        # over the cone with denominator 2.
        assert z == tuple(2 * v for v in lam)


def parity_pattern_cone(rng, d):
    """A cone whose generators are P + 2*A for a 0/1 matrix P of random
    rank mod 2, so the mod-2 kernel has any dimension from 0 to d."""
    while True:
        rank = rng.randint(0, d)
        basis = [[rng.randint(0, 1) for _ in range(d)] for _ in range(rank)]
        gens = []
        for _ in range(d):
            row = [0] * d
            for b in basis:
                if rng.randint(0, 1):
                    row = [x ^ y for x, y in zip(row, b)]
            gens.append(tuple(p + 2 * rng.randint(-2, 2) for p in row))
        try:
            return labelled_cone(gens, tuple(range(-1, -d - 1, -1)))
        except SingularMatrixError:
            continue


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_half_vector_matches_oracle(d):
    rng = random.Random(1000 + d)
    kernel_dims = set()
    for _ in range(60):
        c = parity_pattern_cone(rng, d)
        want = oracle_half_vector(c.generators)
        if want is None:
            with pytest.raises(DivisibilityError):
                half_vector(c)
        else:
            assert half_point(c)[0] == want
        kernel_dims.add((len(even_subsets(c.generators)) + 1).bit_length() - 1)
    assert {1, 2} <= kernel_dims


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_kernel_masks_are_the_nullspace_mod2_basis(d):
    rng = random.Random(1000 + d)
    for _ in range(60):
        c = parity_pattern_cone(rng, d)
        as_tuples = [
            tuple(m >> (d - 1 - i) & 1 for i in range(d))
            for m in nullspace_mod2(c.generators)
        ]
        assert as_tuples == oracle_nullspace_mod2(c.matrix())


def test_half_vector_large_kernel_takes_the_lightest_basis_vector():
    # 2*I in d = 13: the mod-2 kernel is everything, too large to enumerate.
    d = 13
    gens = tuple(tuple(2 if i == j else 0 for j in range(d)) for i in range(d))
    # det(2*I) = 2^13; perm_det would expand 13! terms.
    c = SimplicialCone(gens, tuple(range(-1, -d - 1, -1)), 0, 2**d)
    assert half_point(c) == ((0,) * (d - 1) + (1,), (0,) * (d - 1) + (1,))


def test_direct_cone_allows_nonprimitive():
    c = labelled_cone([(2, 0), (0, 1)], (-1, -2))
    assert c.multiplicity == 2
