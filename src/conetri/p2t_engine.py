"""Reduction of every cone multiplicity to a power of two.

The engine repeatedly picks a cone D whose multiplicity has an odd prime
factor, takes p to be the largest one, and constructs a lattice point
x' = (1/p) * sum z'_j xi_D(i_j) whose coefficients are powers of two times
controlled odd factors. Subdividing every cone that contains x' then strictly
decreases the potential phi of each multiplicity it touches, so after
finitely many rounds every multiplicity is a power of two.

Coefficient positions are ranked by label index, newest first. The first
floor(ln(p)/tau) positions are protected: their coefficients must already be
harmless (small, or not an odd prime) and are never rewritten, because those
labels carry the longest vectors. Unprotected coefficients that happen to be
large odd primes are repaired by odd_adjust, which may push them above p but
keeps the potential dropping.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
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
    """How many leading (newest-label) coefficient positions are protected.

    floor(ln(p) / tau) with tau the Rosser-Schoenfeld constant; natural log.
    """
    return int(math.log(p) / TAU)


def coefficient_ok_protected(z: int, p: int) -> bool:
    """Whether a coefficient may sit in a protected position.

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
    order). For cones other than the initiating one, z_prime is read off the
    shared face and z is its mod-p reduction.

    An immutable record: a run builds one per split cone, tens of thousands
    for a d = 5 cone, and a named tuple is built about four times faster
    than a frozen dataclass. Events compare, hash and unpack as tuples.
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


@dataclass
class P2TState:
    """Result of the power-of-two phase."""

    triangulation: Triangulation
    trace: list[TraceEvent] = field(default_factory=list)


def find_x(cone: SimplicialCone, p: int) -> tuple[int, ...]:
    """Search the order-p multiples for an acceptable coefficient vector.

    Starting from the Smith-normal-form order-p element, scan the multiples
    j*x for j = 1..p-1 and return the first whose protected coefficients all
    pass coefficient_ok_protected. A counting argument over the odd primes in
    (p/2, p) guarantees a hit, so exhaustion means a broken invariant.

    Args:
        cone: cone whose multiplicity p divides.
        p: odd prime.

    Returns:
        The box coefficients z of the chosen multiple, listed in decreasing
        label order: z[0] belongs to the newest label. The point itself is
        (1/p) * sum z_j * g_j over the generators in that order.

    Raises:
        SearchExhaustedError: if no multiple is acceptable.
    """
    z0 = order_p_element(cone, p)
    z_label = [z0[s] for s in _label_order(cone)]
    protected = z_label[: protected_count(p)]
    for mult in range(1, p):
        for z in protected:
            if not coefficient_ok_protected(mult * z % p, p):
                break
        else:
            return tuple([mult * z % p for z in z_label])
    raise SearchExhaustedError(
        f"no acceptable order-{p} multiple; the counting bound is violated"
    )


def _label_order(cone: SimplicialCone) -> list[int]:
    """Slot indices by decreasing label: the newest label's slot first."""
    return sorted(range(cone.dimension), key=cone.labels.__getitem__, reverse=True)


def adjust_coefficients(z: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Repair unprotected coefficients that are odd primes above p/2.

    Positions are in decreasing label order, matching find_x. Protected
    positions are copied verbatim; an unprotected z_j that is prime, above
    p/2 and not 2 becomes z_j + k*p == 2**s * t per odd_adjust.
    """
    q = min(protected_count(p), len(z))
    out = list(z)
    for j in range(q, len(z)):
        zj = z[j]
        if not is_prime(zj) or 2 * zj <= p or zj == 2:
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
        self, x: LatticeVector, producer: SimplicialCone, nums_p: tuple[int, ...]
    ) -> list[tuple[SimplicialCone, tuple[int, ...]]]:
        """Live cones containing x with their numerators, in uid order.

        nums_p are the producer's numerators of x (det times x's barycentric
        coordinates). No coordinates are computed, and x itself is not read:
        the others follow from nums_p by this lemma. Let
        x = (1/q) * sum_{g in F} c_g * g with every c_g > 0 and F a set of
        the producer's generators. Then every cone C whose generators
        include F contains x, with numerator det(C) * c_g / q in g's slot
        and 0 in every other slot. Proof: C's generators are a basis, so
        that sum, padded with zeros, is x's only expansion in them; its
        coefficients are nonnegative, and det(C) times them is integral (it
        is C's adjugate times x).

        Here F holds the producer's generators with nonzero numerator n_g,
        and c_g / q = n_g / det(producer); the division is asserted exact.
        The candidates, the intersection of F's ray-index buckets, are the
        live cones holding all of F, so each contains x and no containment
        check runs. The lemma needs no face-to-face property; that the
        candidates are *all* the cones containing x does: F spans x's
        minimal face, every cone of a face-to-face tiling containing x has
        that face, and one vector per ray (class docstring) puts F's own
        vectors on its rays.
        """
        if all(nums_p):
            # Interior point: no other cone of the tiling can contain it.
            return [(producer, nums_p)]
        det_p = producer.det
        support = [(g, n) for g, n in zip(producer.generators, nums_p) if n]
        out = []
        for cone in self.holders([g for g, _ in support]):
            det = cone.det
            slot = cone.generators.index
            nums = [0] * len(nums_p)
            for g, n in support:
                num, rem = divmod(n * det, det_p)
                assert rem == 0, "numerators must be integers"
                nums[slot(g)] = num
            out.append((cone, tuple(nums)))
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
    cones_containing lemma, x' equals a holder's generator h only if
    F == {h} and c_h / q == 1. With x' = (1/p) * sum z'_g * g that would
    need z'_h == p; but every nonzero z'_g is nonzero mod p, because
    adjust_coefficients only adds multiples of p to a residue in (0, p).

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
        det = cone.det
        mu = abs(det)
        if mu & (mu - 1) == 0:
            continue
        p = p_max(factorize(mu))
        z_prime_label = adjust_coefficients(find_x(cone, p), p)
        # Back from label order to slot order.
        z_prime_storage = [0] * len(z_prime_label)
        for s, z in zip(_label_order(cone), z_prime_label):
            z_prime_storage[s] = z
        x_prime = _combine(cone, z_prime_storage, p)
        # x' = (1/p) * sum z'_j g_j, so its numerators are det * z'_j / p.
        scale = det // p
        nums_p = tuple([scale * z for z in z_prime_storage])
        # The holder list is fixed before the first split, so adding each
        # parent's children at once leaves uids and `pending` in order.
        for parent, nums in engine.cones_containing(x_prime, cone, nums_p):
            engine.remove(parent)
            new_label = parent.max_label() + 1
            children = _split_at(parent, x_prime, nums, new_label, engine.uid_source)
            # z' read off the parent: nums are det * (z'_i / p), exactly.
            det_parent = parent.det
            z_prime = tuple([p * n // det_parent for n in nums])
            # Fields in order: keywords would double the cost of building one.
            trace.append(
                TraceEvent(
                    parent.uid,
                    p,
                    tuple([v % p for v in z_prime]),
                    z_prime,
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
