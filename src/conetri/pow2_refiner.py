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

from typing import Sequence

from .cone_geometry import SimplicialCone, half_vector
from .errors import PhaseOrderError
from .p2t_engine import _Engine, is_power_of_two


def refine_to_unimodular(cones: Sequence[SimplicialCone]) -> list[SimplicialCone]:
    """Subdivide every power-of-two cone of a tiling down to multiplicity 1.

    Each round pops the oldest live cone and halves it at
    u = (1/2) * sum_{g in S} g for a subset S of its generators
    (half_vector). That is the lemma of _Engine.cones_containing with p = 2
    and every coefficient 1: every live cone holding all of S contains u,
    with coordinates 1/2 on S and 0 elsewhere, and det times them is
    integral, so its det is even; no other cone does (face to face, one
    vector per ray). Each holder, in uid order, is replaced by one child per
    slot of S, in slot order, with u in that slot and half its det. u has
    coordinate 1/2, not 1, there, so it is none of the holder's generators
    and no child copies its parent. This loop shares the engine's state
    with phase 1 (run_p2t) but not its split path (_split_at).

    A halving point is half the sum of generators shared by every cone that
    contains it, so its coordinates over a unimodular cone would be
    half-integers: no halving ever touches a unimodular cone. Such cones
    therefore go straight to `final` and never enter the engine's live set.

    New uids start one past the largest input uid: on run_p2t's tiling, one
    past every uid phase 1 made, as its last event's children stay live.

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
    new_uid = engine.uid_source.__next__
    while pending:
        cone = live.get(pending.popleft())
        if cone is None:
            continue
        found = half_vector(cone)
        assert found is not None, "even multiplicity must yield a half vector"
        u, slots = found
        face = [cone.generators[j] for j in slots]
        for parent in engine.holders(face):
            engine.remove(parent)
            det = parent.det
            assert det & 1 == 0, "a cone holding S has numerators det/2 on S"
            half = det // 2
            keep = final.append if half == 1 or half == -1 else engine.add
            gens = parent.generators
            labels = parent.labels
            new_label = parent.max_label() + 1
            for i in sorted(map(gens.index, face)):
                child_gens = list(gens)
                child_gens[i] = u
                child_labels = list(labels)
                child_labels[i] = new_label
                keep(SimplicialCone(tuple(child_gens), tuple(child_labels), new_uid(), half))
    return final
