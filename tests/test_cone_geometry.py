"""Cone construction, coordinates, and the subdivision primitives."""

import random
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conetri.cone_geometry import (
    SimplicialCone,
    barycentric,
    contains,
    dilation,
    half_vector,
    make_cone,
    order_p_element,
    par_normalize,
    primitive_direction,
    stellar_subdivide,
    vector_content,
)
from conetri.errors import (
    ContainmentError,
    DimensionError,
    DivisibilityError,
    PrimitivityError,
    SingularMatrixError,
)
from conetri.number_theory import factorize

from conftest import oracle_barycentric, oracle_dilation, perm_det


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


def test_barycentric_examples():
    c = make_cone([(1, 0), (1, 2)])
    assert barycentric(c, (1, 1)) == (Fraction(1, 2), Fraction(1, 2))
    assert barycentric(c, (1, 0)) == (1, 0)
    assert barycentric(c, (2, 2)) == (1, 1)
    c3 = make_cone([(1, 0), (1, 3)])
    assert barycentric(c3, (1, 1)) == (Fraction(2, 3), Fraction(1, 3))


def test_contains_examples():
    c = make_cone([(1, 0), (1, 3)])
    assert contains(c, (1, 1))
    assert contains(c, (0, 0))
    assert contains(c, (1, 0))
    assert not contains(c, (-1, 0))
    assert not contains(c, (0, 1))


def test_dilation_examples():
    unit = make_cone([(1, 0), (0, 1)])
    assert dilation(unit, (1, 1)) == 2
    assert dilation(unit, (0, 0)) == 0
    c = make_cone([(1, 0), (1, 3)])
    assert dilation(c, (1, 2)) == 1
    assert dilation(c, (2, 3)) == 2
    with pytest.raises(ContainmentError):
        dilation(c, (0, 1))


def test_par_normalize_examples():
    c = make_cone([(1, 0), (1, 3)])
    assert par_normalize(c, (1, 0)) == (0, 0)
    assert par_normalize(c, (1, 1)) == (1, 1)
    assert par_normalize(c, (2, 1)) == (1, 1)
    assert par_normalize(c, (-1, 2)) == (1, 2)


@given(st.integers(min_value=0, max_value=10**6))
def test_par_normalize_properties(seed):
    rng = random.Random(seed)
    d = rng.choice([2, 3])
    gens = random_cone_gens(rng, d, 5)
    c = make_cone(gens)
    x = tuple(rng.randint(-10, 10) for _ in range(d))
    y = par_normalize(c, x)
    lam = oracle_barycentric(gens, y)
    assert all(0 <= v < 1 for v in lam)
    diff = oracle_barycentric(gens, tuple(a - b for a, b in zip(x, y)))
    assert all(v.denominator == 1 for v in diff)
    assert par_normalize(c, y) == y


def test_order_p_element_examples():
    c2 = make_cone([(1, 0), (1, 2)])
    assert order_p_element(c2, 2) == (1, 1)
    c3 = make_cone([(1, 0), (1, 3)])
    x = order_p_element(c3, 3)
    z = tuple(v * 3 for v in barycentric(c3, x))
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
        x = order_p_element(c, p)
        lam = oracle_barycentric(gens, x)
        assert all(0 <= v < 1 for v in lam)
        # p*x is in the generator lattice, x itself is not.
        assert all((p * v).denominator == 1 for v in lam)
        assert any(v.denominator != 1 for v in lam)
        # Determinism.
        assert order_p_element(c, p) == x


def test_stellar_subdivide_examples():
    unit = make_cone([(1, 0), (0, 1)])
    kids = stellar_subdivide(unit, (1, 1))
    assert [k.generators for k in kids] == [
        ((1, 1), (0, 1)),
        ((1, 0), (1, 1)),
    ]
    assert [k.multiplicity for k in kids] == [1, 1]
    c = make_cone([(1, 0), (1, 3)])
    kids = stellar_subdivide(c, (1, 1))
    assert sorted(k.multiplicity for k in kids) == [1, 2]


def test_stellar_subdivide_labels():
    c = make_cone([(1, 0), (1, 3)])
    kids = stellar_subdivide(c, (1, 1), uid_source=count(1))
    for k in kids:
        assert k.generators[k.labels.index(0)] == (1, 1)
        assert k.max_label() == 0
    assert kids[0].labels == (0, -2)
    assert kids[1].labels == (-1, 0)
    assert kids[0].uid == 1 and kids[1].uid == 2


def test_stellar_subdivide_noop_on_generator():
    c = make_cone([(1, 0), (1, 3)])
    assert stellar_subdivide(c, (1, 0)) == [c]
    assert stellar_subdivide(c, (1, 3)) == [c]


def test_stellar_subdivide_ray_multiple_replaces():
    # A point further out on a generator ray: single child, generator swapped.
    c = make_cone([(1, 0), (1, 3)])
    kids = stellar_subdivide(c, (2, 0))
    assert len(kids) == 1
    assert kids[0].generators == ((2, 0), (1, 3))
    assert kids[0].multiplicity == 6


def test_stellar_subdivide_rejects_bad_points():
    c = make_cone([(1, 0), (1, 3)])
    with pytest.raises(ValueError):
        stellar_subdivide(c, (0, 0))
    with pytest.raises(ContainmentError):
        stellar_subdivide(c, (0, 1))


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
    if all(v == 0 for v in x):
        return
    kids = stellar_subdivide(c, x)
    if len(kids) == 1 and kids[0] is c:
        return
    lam = oracle_barycentric(gens, x)
    expected = sorted(
        abs(v * perm_det(gens)) for v in lam if v > 0
    )
    assert sorted(k.multiplicity for k in kids) == expected
    for k in kids:
        assert abs(perm_det(k.generators)) == k.multiplicity


def test_half_vector_examples():
    assert half_vector(make_cone([(1, 0), (1, 2)])) == (1, 1)
    assert half_vector(make_cone([(1, 0), (0, 1)])) is None
    assert half_vector(make_cone([(1, 0), (1, 4)])) == (1, 2)
    assert half_vector(make_cone([(1, 0), (1, 3)])) is None


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80)
def test_half_vector_properties(seed):
    rng = random.Random(seed)
    d = rng.choice([2, 3])
    gens = random_cone_gens(rng, d, 6)
    c = make_cone(gens)
    u = half_vector(c)
    if c.multiplicity % 2 == 1:
        assert u is None
    else:
        assert u is not None
        lam = oracle_barycentric(gens, u)
        assert set(lam) <= {Fraction(0), Fraction(1, 2)}
        assert sum(lam) > 0


def test_direct_cone_allows_nonprimitive():
    c = SimplicialCone([(2, 0), (0, 1)], (-1, -2))
    assert c.multiplicity == 2
