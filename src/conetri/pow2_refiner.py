"""Refinement of power-of-two cones into unimodular ones.

Once every multiplicity is a power of two, the generator matrix of any
non-unimodular cone has even determinant, so some nonempty subset S of its
generators sums to twice a lattice vector u. Subdividing at u halves the
multiplicity of every affected cone exactly; l rounds of halving per cone
finish a multiplicity of 2**l. Each halving is one round of the loop both
phases share, p2t_engine._Engine.subdivide, at half_vector's indicator of
S. The new generators stay short: generation-k vectors have dilation at
most h_k relative to the cone being refined, with h_k <= (d/2) *
(3/2)**(k-1).
"""

from __future__ import annotations

from typing import Sequence

from .cone_geometry import SimplicialCone, half_vector
from .errors import PhaseOrderError
from .p2t_engine import _Engine


def refine_to_unimodular(cones: Sequence[SimplicialCone]) -> list[SimplicialCone]:
    """Subdivide every power-of-two cone of a tiling down to multiplicity 1.

    The loop is _Engine.subdivide (see _Engine). Phase 2 supplies the point
    u = (1/2) * sum_{g in S} g, from half_vector's indicator z of S with
    p = 2, which gives one child per slot of S with half its det, and the
    finished rule: unimodular. It records nothing.

    A halving point is half the sum of generators shared by every cone that
    contains it, so its coordinates over a unimodular cone would be
    half-integers: no halving ever touches a unimodular cone, and such
    cones, input and children alike, never enter the live set.

    New uids start one past the largest input uid: on run_p2t's tiling, one
    past every uid phase 1 made, since its last event's children all end
    in that tiling.

    Args:
        cones: tiling whose cones all have power-of-two multiplicity, with
            one generator vector on each ray: run_p2t's
            P2TState.triangulation.cones, or a single cone (see _Engine).

    Returns:
        The unimodular cones tiling the same region: the unimodular input
        cones in input order, then each new one as it is made.

    Raises:
        PhaseOrderError: at the first cone not of power-of-two multiplicity.
    """
    for c in cones:
        mu = c.multiplicity
        if mu & (mu - 1):
            raise PhaseOrderError(f"cone {c.uid} has multiplicity {mu}, not a power of two")
    engine = _Engine(max((c.uid for c in cones), default=-1) + 1, 1)
    engine.route(cones)
    engine.subdivide(lambda cone: (half_vector(cone), 2))
    return engine.done
