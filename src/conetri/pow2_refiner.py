"""Refinement of power-of-two cones into unimodular ones.

Once every multiplicity is a power of two, the generator matrix of any
non-unimodular cone has even determinant, so some nonempty subset of its
generators sums to twice a lattice vector u. Subdividing at u halves the
multiplicity of every affected cone exactly; l rounds of halving per cone
finish a multiplicity of 2**l. Each halving is phase 1's step
(_Engine.cones_containing, then _Engine.split) with p = 2: only the point
and where the children go differ. The new generators stay short:
generation-k vectors have dilation at most h_k relative to the cone being
refined, with h_k <= (d/2) * (3/2)**(k-1).
"""

from __future__ import annotations

from typing import Sequence

from .cone_geometry import SimplicialCone, half_vector
from .errors import PhaseOrderError
from .p2t_engine import _Engine, is_power_of_two


def refine_to_unimodular(cones: Sequence[SimplicialCone]) -> list[SimplicialCone]:
    """Subdivide every power-of-two cone of a tiling down to multiplicity 1.

    Each round pops the oldest live cone and halves it at
    u = (1/2) * sum_{g in S} g for a subset S of its generators: half_vector
    gives u and S's 0/1 indicator z. Every cone containing u comes from
    _Engine.cones_containing with z moved into its slots, and goes through
    _Engine.split with p = 2, as in phase 1, giving one child per slot of S
    with half its det.

    A halving point is half the sum of generators shared by every cone that
    contains it, so its coordinates over a unimodular cone would be
    half-integers: no halving ever touches a unimodular cone. Such cones
    therefore go straight to `final` and never enter the engine's live set.

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
        PhaseOrderError: if some multiplicity is not a power of two.
    """
    for c in cones:
        if not is_power_of_two(c.multiplicity):
            raise PhaseOrderError(
                f"cone {c.uid} has multiplicity {c.multiplicity}, not a power of two"
            )
    final = [c for c in cones if c.multiplicity == 1]
    engine = _Engine(
        (c for c in cones if c.multiplicity != 1),
        max((c.uid for c in cones), default=-1) + 1,
    )
    live, pending = engine.cones, engine.pending
    while pending:
        cone = live.get(pending.popleft())
        if cone is None:
            continue
        found = half_vector(cone)
        assert found is not None, "even multiplicity must yield a half vector"
        u, z = found
        for parent, moved in engine.cones_containing(cone, z):
            for child in engine.split(parent, u, moved, 2):
                if child.det in (1, -1):
                    final.append(child)
                else:
                    engine.add(child)
    return final
