"""Reduction of every cone multiplicity to a power of two.

The engine repeatedly picks a cone D whose multiplicity has an odd prime
factor, takes p to be the largest one, and constructs a lattice point
x' = (1/p) * sum z'_j xi_D(i_j) whose coefficients are powers of two times
controlled odd factors. Subdividing every cone that contains x' then strictly
decreases the potential phi of each multiplicity it touches, so after
finitely many rounds every multiplicity is a power of two.

The coefficients z' stay in the cone's slot order from find_x to the
trace. The slots of the floor(ln(p)/tau) newest labels are protected, because
those labels carry the longest vectors: find_x only takes a multiple whose
coefficients there are already harmless (small, or not an odd prime), so
they are never rewritten. Any other coefficient that is a large odd prime is
repaired by odd_adjust, which may push it above p but keeps the potential
dropping.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import count
from typing import Iterable, NamedTuple

from .cone_geometry import (
    LatticeVector,
    SimplicialCone,
    Triangulation,
    _combine,
    _split_at,
    order_p_element,
)
from .errors import SearchExhaustedError
from .number_theory import (
    ROSSER_CONSTANT,
    factorize,
    is_prime,
    odd_adjust,
    p_max,
)

TAU = ROSSER_CONSTANT

def is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def protected_count(p: int) -> int:
    """How many coefficients, those of the newest labels, are protected.

    floor(ln(p) / tau) with tau the Rosser-Schoenfeld constant; natural log.
    """
    return int(math.log(p) / TAU)


def coefficient_ok_protected(z: int, p: int) -> bool:
    """Whether a coefficient may sit in a protected slot.

    Acceptable coefficients are the ones subdivision can afford on long
    vectors: anything that is not an odd prime exceeding p/2, plus the
    special pair z == 2, p == 3.
    """
    if not is_prime(z):
        return True
    if 2 * z <= p:
        return True
    return z == 2 and p == 3


class TraceEvent(NamedTuple):
    """One stellar subdivision of one cone, with enough data to re-audit it.

    z are the box coefficients of the subdivision point before adjustment,
    z_prime after; both are indexed by the parent's generator slots (storage
    order). For cones other than the initiating one, z_prime is the
    initiating cone's, moved into the parent's slots (cones_containing),
    and z is its mod-p reduction.

    An immutable NamedTuple, like every record in conetri; events compare,
    hash and unpack as tuples. A run builds one per split cone, tens of
    thousands for a d = 5 cone, and a named tuple is built about four times
    faster than a frozen dataclass.
    """

    parent_id: int
    p: int
    z: tuple[int, ...]
    z_prime: tuple[int, ...]
    x_prime: LatticeVector
    new_label_index: int
    children_ids: tuple[int, ...]
    mu_parent: int
    mu_children: tuple[int, ...]


class P2TState(NamedTuple):
    """Result of the power-of-two phase."""

    triangulation: Triangulation
    trace: list[TraceEvent]


def find_x(cone: SimplicialCone, p: int) -> tuple[int, ...]:
    """Search the order-p multiples for an acceptable coefficient vector.

    Starting from the Smith-normal-form order-p element, scan the multiples
    j*x for j = 1..p-1 and return the first whose protected coefficients,
    those in the slots of the protected_count(p) newest labels, all pass
    coefficient_ok_protected. A counting argument over the odd primes in
    (p/2, p) guarantees a hit, so exhaustion means a broken invariant.

    Args:
        cone: cone whose multiplicity p divides.
        p: odd prime.

    Returns:
        The box coefficients z of the chosen multiple in slot order, as
        order_p_element gives them: the point is (1/p) * sum z_j * g_j
        (_combine).

    Raises:
        SearchExhaustedError: if no multiple is acceptable.
    """
    z0 = order_p_element(cone, p)
    newest = sorted(range(len(z0)), key=cone.labels.__getitem__, reverse=True)
    protected = [z0[s] for s in newest[: protected_count(p)]]
    for mult in range(1, p):
        for z in protected:
            if not coefficient_ok_protected(mult * z % p, p):
                break
        else:
            return tuple([mult * z % p for z in z0])
    raise SearchExhaustedError(
        f"no acceptable order-{p} multiple; the counting bound is violated"
    )


def adjust_coefficients(z: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Repair every coefficient that coefficient_ok_protected rejects.

    Such a z_j is an odd prime above p/2, and it becomes
    z_j + k*p == 2**s * t per odd_adjust; the others are copied verbatim.
    find_x's protected coefficients pass, so they come back unchanged.
    p is an odd prime.
    """
    out = list(z)
    for j, zj in enumerate(z):
        if coefficient_ok_protected(zj, p):
            continue
        s, t, k = odd_adjust(zj, p)
        out[j] = zj + k * p
        assert out[j] == (1 << s) * t
    return tuple(out)


class _Engine:
    """Live cones of one subdivision phase, with a ray index over them.

    Each phase runs its own loop (run_p2t, refine_to_unimodular): it pops
    uids off the FIFO `pending`, splits the live cones containing its
    point, and decides which children to add back and what to record about
    them.

    The ray index maps each generator vector to the uids of the live cones
    that hold it. It is keyed by the vector, not by its primitive direction,
    because every ray of the live tiling carries exactly one generator
    vector. The starting cones must have this property: one cone has it,
    and so does any set of cones from an earlier engine's tiling. Both
    phases keep it. Say x lies on a ray R, and a live cone C has a
    generator y on R. Then x is a positive multiple of y, so the producer
    holds y, x's support is {y}, and C, a holder of y, is split with x's
    coordinates zero but in y's slot. No split point is one of the split
    cone's generators (see run_p2t and refine_to_unimodular), so C's
    only child replaces y by x. Every live cone with a generator on R holds
    x there afterwards, and no other ray gains a vector. Primitivity plays
    no part, and the generators are not all primitive: order-p and halving
    points are often multiples of a lattice vector.
    """

    def __init__(self, cones: Iterable[SimplicialCone], next_uid: int):
        self.cones: dict[int, SimplicialCone] = {}
        self.ray_index: dict[LatticeVector, set[int]] = {}
        self.pending: deque[int] = deque()
        self.uid_source = count(next_uid)
        for cone in cones:
            self.add(cone)

    def add(self, cone: SimplicialCone) -> None:
        """Make a cone live: index its rays and queue it."""
        uid = cone.uid
        self.cones[uid] = cone
        index = self.ray_index
        for g in cone.generators:
            bucket = index.get(g)
            if bucket is None:
                index[g] = {uid}
            else:
                bucket.add(uid)
        self.pending.append(uid)

    def remove(self, cone: SimplicialCone) -> None:
        """Take a cone out of the live set and the ray index."""
        del self.cones[cone.uid]
        for g in cone.generators:
            bucket = self.ray_index[g]
            bucket.discard(cone.uid)
            if not bucket:
                del self.ray_index[g]

    def holders(self, vectors: list[LatticeVector]) -> list[SimplicialCone]:
        """Live cones whose generators include every one of `vectors`, in
        uid order: the intersection of their ray-index buckets."""
        uids = set.intersection(*[self.ray_index[g] for g in vectors])
        return [self.cones[uid] for uid in sorted(uids)]

    def cones_containing(
        self, producer: SimplicialCone, z: tuple[int, ...]
    ) -> list[tuple[SimplicialCone, tuple[int, ...]]]:
        """Live cones containing x = (1/p) * sum z_g * g, with x's
        coefficients over each, in uid order.

        z are x's coefficients over the producer, in slot order, and p is
        the prime they were built for. No coordinates are computed, and x
        is not an argument: the other cones' coefficients follow from z by
        this lemma. Let
        x = (1/p) * sum_{g in F} z_g * g with every z_g > 0 and F a set of
        the producer's generators. Then every cone C whose generators
        include F contains x, with these same coefficients z_g in F's slots
        and 0 in every other slot. Proof: C's generators are a basis, so
        that sum, padded with zeros, is x's only expansion in them; its
        coefficients are nonnegative, and det(C) times them is integral (it
        is C's adjugate times x).

        Here F holds the producer's generators with nonzero z_g. The
        candidates, the intersection of F's ray-index buckets, are the
        live cones holding all of F, so each contains x and no containment
        check runs. The lemma needs no face-to-face property; that the
        candidates are *all* the cones containing x does: F spans x's
        minimal face, every cone of a face-to-face tiling containing x has
        that face, and one vector per ray (class docstring) puts F's own
        vectors on its rays.
        """
        if all(z):
            # Interior point: no other cone of the tiling can contain it.
            return [(producer, z)]
        support = [(g, c) for g, c in zip(producer.generators, z) if c]
        out = []
        for cone in self.holders([g for g, _ in support]):
            slot = cone.generators.index
            moved = [0] * len(z)
            for g, c in support:
                moved[slot(g)] = c
            out.append((cone, tuple(moved)))
        return out


def run_p2t(base: SimplicialCone) -> P2TState:
    """Subdivide until every multiplicity is a power of two.

    Cones are processed first-in first-out by uid; each round handles the
    largest prime factor p of the multiplicity of the oldest remaining
    offender and subdivides every cone containing the constructed point x'.
    Each split parent leaves the live set, its children join it, and one
    TraceEvent records the split: the trace is the phase's certificate,
    which audit_trace replays and `conetri run --trace` writes out.

    No split is a no-op: x' is never one of a holder's generators. By the
    cones_containing lemma, x' = (1/p) * sum z'_g * g equals a holder's
    generator h only if F == {h} and z'_h == p; but every nonzero z'_g is
    nonzero mod p, because adjust_coefficients only adds multiples of p to a
    residue in (0, p). For the same reason p divides every holder's det,
    since det * z'_g / p is an integer.

    Args:
        base: the cone to triangulate (normally from make_cone).

    Returns:
        P2TState whose triangulation tiles `base` with cones of power-of-two
        multiplicity, plus the full subdivision trace.
    """
    engine = _Engine([base], base.uid + 1)
    created = [base]
    trace: list[TraceEvent] = []
    while engine.pending:
        uid = engine.pending.popleft()
        cone = engine.cones.get(uid)
        if cone is None:
            continue
        mu = abs(cone.det)
        if mu & (mu - 1) == 0:
            continue
        p = p_max(factorize(mu))
        z_prime = adjust_coefficients(find_x(cone, p), p)
        x_prime = _combine(cone, z_prime, p)
        # The holder list is fixed before the first split, so adding each
        # parent's children at once leaves uids and `pending` in order.
        for parent, z in engine.cones_containing(cone, z_prime):
            engine.remove(parent)
            det_parent = parent.det
            scale, rem = divmod(det_parent, p)
            assert rem == 0, "p divides every holder's det"
            new_label = parent.max_label() + 1
            # x' = (1/p) * sum z_i g_i, so its numerators are det * z_i / p.
            nums = tuple([scale * c for c in z])
            children = _split_at(parent, x_prime, nums, new_label, engine.uid_source)
            # Fields in order: keywords would double the cost of building one.
            trace.append(
                TraceEvent(
                    parent.uid,
                    p,
                    tuple([c % p for c in z]),
                    z,
                    x_prime,
                    new_label,
                    tuple([c.uid for c in children]),
                    abs(det_parent),
                    tuple([abs(c.det) for c in children]),
                )
            )
            for child in children:
                engine.add(child)
            created.extend(children)
        assert uid not in engine.cones, "the offending cone must get subdivided"
    tri = Triangulation(base, list(engine.cones.values()), created)
    return P2TState(triangulation=tri, trace=trace)
