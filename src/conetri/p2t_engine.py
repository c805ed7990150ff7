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
from typing import Iterable

from .cone_geometry import (
    LatticeVector,
    SimplicialCone,
    Triangulation,
    _combine,
    _split_at,
    box_coefficients,
    order_p_element,
    primitive_direction,
)
from .errors import SearchExhaustedError
from .number_theory import (
    ROSSER_CONSTANT,
    factorize,
    is_prime,
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


@dataclass(frozen=True)
class TraceEvent:
    """One stellar subdivision of one cone, with enough data to re-audit it.

    z are the box coefficients of the subdivision point before adjustment,
    z_prime after; both are indexed by the parent's generator slots (storage
    order). For cones other than the initiating one, z_prime is read off the
    shared face and z is its mod-p reduction.
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


def find_x(cone: SimplicialCone, p: int) -> tuple[LatticeVector, tuple[int, ...]]:
    """Search the order-p multiples for an acceptable coefficient vector.

    Starting from the Smith-normal-form order-p element, scan the multiples
    j*x for j = 1..p-1 and return the first whose protected coefficients all
    pass coefficient_ok_protected. A counting argument over the odd primes in
    (p/2, p) guarantees a hit, so exhaustion means a broken invariant.

    Args:
        cone: cone whose multiplicity p divides.
        p: odd prime.

    Returns:
        (x, z) with x in the half-open box and z its coefficients listed in
        decreasing label order: z[0] belongs to the newest label.

    Raises:
        SearchExhaustedError: if no multiple is acceptable.
    """
    d = cone.dimension
    order_slots = sorted(range(d), key=lambda s: cone.labels[s], reverse=True)
    x0 = order_p_element(cone, p)
    z0 = box_coefficients(cone, x0, p)
    q = min(protected_count(p), d)
    for mult in range(1, p):
        z_storage = tuple((mult * z) % p for z in z0)
        z_label = tuple(z_storage[s] for s in order_slots)
        if all(coefficient_ok_protected(z_label[i], p) for i in range(q)):
            x = _combine(cone, z_storage, p)
            return x, z_label
    raise SearchExhaustedError(
        f"no acceptable order-{p} multiple; the counting bound is violated"
    )


def adjust_coefficients(z: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Repair unprotected coefficients that are odd primes above p/2.

    Positions are in decreasing label order, matching find_x. Protected
    positions are copied verbatim; an unprotected z_j that is prime, above
    p/2 and not 2 becomes z_j + k*p == 2**s * t per odd_adjust.
    """
    from .number_theory import odd_adjust

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

    Each phase runs its own loop: it pops uids off the FIFO `pending`,
    subdivides through subdivide_all, and decides which children to add
    back and what to record about them.
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
        self.cones[cone.uid] = cone
        for key in cone.ray_directions:
            self.ray_index.setdefault(key, set()).add(cone.uid)
        self.pending.append(cone.uid)

    def _remove(self, cone: SimplicialCone) -> None:
        del self.cones[cone.uid]
        for key in cone.ray_directions:
            bucket = self.ray_index[key]
            bucket.discard(cone.uid)
            if not bucket:
                del self.ray_index[key]

    def cones_containing(
        self, x: LatticeVector, producer: SimplicialCone
    ) -> list[tuple[SimplicialCone, tuple[int, ...]]]:
        """Live cones containing x with their numerators, in uid order.

        The minimal face of x is spanned by the producer's generators with
        positive coordinate; in a conforming tiling only cones sharing all
        those rays can contain x, so the ray index narrows the scan. The
        exact containment check still runs on every candidate, and the
        coefficient numerators it computes are returned for reuse.
        """
        nums_p = producer.coeff_numerators(x)
        if all(nums_p):
            # Interior point: no other cone of the tiling can contain it.
            return [(producer, nums_p)]
        support = [
            dirn for dirn, n in zip(producer.ray_directions, nums_p) if n != 0
        ]
        candidates = set.intersection(*(self.ray_index[dirn] for dirn in support))
        out = []
        for uid in sorted(candidates):
            cone = self.cones[uid]
            nums = nums_p if cone is producer else cone.coeff_numerators(x)
            sign = 1 if cone.det > 0 else -1
            if all(n * sign >= 0 for n in nums):
                out.append((cone, nums))
        return out

    def subdivide_all(
        self, x: LatticeVector, producer: SimplicialCone
    ) -> list[tuple[SimplicialCone, tuple[int, ...], int, list[SimplicialCone]]]:
        """Split every live cone containing x at x.

        Each split parent leaves the live set; its children are returned,
        not added, as (parent, numerators, new_label, children) rows.
        """
        rows = []
        x_dir = primitive_direction(x)
        for parent, nums in self.cones_containing(x, producer):
            positive = [i for i, n in enumerate(nums) if n != 0]
            if len(positive) == 1 and nums[positive[0]] == parent.det:
                # x is exactly the generator on that ray: nothing to split.
                continue
            new_label = parent.max_label() + 1
            children = _split_at(
                parent, x, nums, positive, new_label, self.uid_source, x_dir
            )
            self._remove(parent)
            rows.append((parent, nums, new_label, children))
        return rows


def run_p2t(base: SimplicialCone) -> P2TState:
    """Subdivide until every multiplicity is a power of two.

    Cones are processed first-in first-out by uid; each round handles the
    largest prime factor p of the multiplicity of the oldest remaining
    offender and subdivides every cone containing the constructed point x'.

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
        if cone is None or is_power_of_two(cone.multiplicity):
            continue
        p = p_max(factorize(cone.multiplicity))
        x, z_label = find_x(cone, p)
        z_prime_label = adjust_coefficients(z_label, p)
        order_slots = sorted(
            range(cone.dimension), key=lambda s: cone.labels[s], reverse=True
        )
        z_prime_storage = [0] * cone.dimension
        for pos, slot in enumerate(order_slots):
            z_prime_storage[slot] = z_prime_label[pos]
        x_prime = _combine(cone, z_prime_storage, p)
        rows = engine.subdivide_all(x_prime, cone)
        assert uid not in engine.cones, "the offending cone must get subdivided"
        for parent, nums, new_label, children in rows:
            # z' read off the parent: nums are det * (z'_i / p).
            sign = 1 if parent.det > 0 else -1
            mu = parent.multiplicity
            z_prime = []
            for n in nums:
                num = p * n * sign
                assert num % mu == 0
                z_prime.append(num // mu)
            trace.append(
                TraceEvent(
                    parent_id=parent.uid,
                    p=p,
                    z=tuple(v % p for v in z_prime),
                    z_prime=tuple(z_prime),
                    x_prime=x_prime,
                    new_label_index=new_label,
                    children_ids=tuple(c.uid for c in children),
                    mu_parent=mu,
                    mu_children=tuple(c.multiplicity for c in children),
                )
            )
            for child in children:
                engine.add(child)
            created.extend(children)
    tri = Triangulation(base, list(engine.cones.values()), created)
    return P2TState(triangulation=tri, trace=trace)

