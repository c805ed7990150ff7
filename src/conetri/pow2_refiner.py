"""Refinement of power-of-two cones into unimodular ones.

Once every multiplicity is a power of two, the generator matrix of any
non-unimodular cone has even determinant, so some nonempty subset of its
generators sums to twice a lattice vector u. Subdividing at u halves the
multiplicity of every affected cone exactly; l rounds of halving per cone
finish a multiplicity of 2**l. The new generators stay short: generation-k
vectors have dilation at most h_k relative to the cone being refined, with
h_k <= (d/2) * (3/2)**(k-1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .cone_geometry import Triangulation, half_vector
from .errors import PhaseOrderError
from .p2t_engine import _Engine, is_power_of_two


def refine_to_unimodular(tri: Triangulation) -> Triangulation:
    """Subdivide every power-of-two cone of a tiling down to multiplicity 1.

    A halving point is half the sum of generators shared by every cone that
    contains it, so its coordinates over a unimodular cone would be
    half-integers: no halving ever touches a unimodular cone. Such cones
    therefore go straight to `final` and never enter the engine's live set.

    Args:
        tri: tiling whose cones all have power-of-two multiplicity, with one
            generator vector on each ray (run_p2t's tilings have this; see
            _Engine).

    Returns:
        A triangulation of the same base by unimodular cones; its
        all_created is its cones.

    Raises:
        PhaseOrderError: if some multiplicity is not a power of two.
    """
    for c in tri.cones:
        if not is_power_of_two(c.multiplicity):
            raise PhaseOrderError(
                f"cone {c.uid} has multiplicity {c.multiplicity}, not a power of two"
            )
    final = [c for c in tri.cones if c.multiplicity == 1]
    engine = _Engine(
        (c for c in tri.cones if c.multiplicity != 1), tri.max_uid() + 1
    )
    while engine.pending:
        uid = engine.pending.popleft()
        cone = engine.cones.get(uid)
        if cone is None:
            continue
        found = half_vector(cone)
        assert found is not None, "even multiplicity must yield a half vector"
        u, slots = found
        # u = (1/2) * sum_{j in slots} g_j: its numerators are det/2 there.
        half = cone.det // 2
        nums_p = tuple([half if j in slots else 0 for j in range(cone.dimension)])
        rows = engine.subdivide_all(u, cone, nums_p)
        assert uid not in engine.cones, "the offending cone must get subdivided"
        for parent, _, _, children in rows:
            # Every child of a halving has exactly half its parent's det,
            # so a row's children are all final or all live.
            for child in children:
                assert 2 * child.det == parent.det
            if parent.det in (2, -2):
                final.extend(children)
            else:
                for child in children:
                    engine.add(child)
    return Triangulation(tri.base, final, final)


def hk_bound(d: int, k: int) -> float:
    """Closed-form ceiling (d/2) * (3/2)**(k-1) for the generation bound h_k."""
    if k <= 0:
        return 1.0
    return (d / 2.0) * 1.5 ** (k - 1)


@cache
def hk_exact(d: int, k: int) -> Fraction:
    """The recurrence h_k = (h_{k-1} + ... + h_{k-d}) / 2 with h_{<=0} = 1.

    h_1 comes out to d/2; hk_bound dominates hk_exact for every k.
    """
    if k <= 0:
        return Fraction(1)
    return sum((hk_exact(d, k - i) for i in range(1, d + 1)), Fraction(0)) / 2
