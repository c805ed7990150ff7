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
from typing import Callable, Iterable, NamedTuple

from .cone_geometry import (
    LatticeVector,
    SimplicialCone,
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


def protected_count(p: int) -> int:
    """How many coefficients, those of the newest labels, are protected.

    floor(ln(p) / tau) with tau the Rosser-Schoenfeld constant; natural log.
    """
    return int(math.log(p) / ROSSER_CONSTANT)


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


class Triangulation(NamedTuple):
    """Phase 1's tiling of a base cone (run_p2t's P2TState.triangulation).

    `cones` is the tiling in creation order, for refine_to_unimodular.
    `all_created` adds the base and every cone later split. Nothing in
    conetri reads it: it is kept for the benchmark alone (perfbench/ counts
    and passes it) until ROADMAP item 2, as the trace holds all the audit
    needs.
    """

    base: SimplicialCone
    cones: list[SimplicialCone]
    all_created: list[SimplicialCone]


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
    """The one subdivision loop of both phases, over its live cones and a
    ray index of them.

    A phase routes its input in (`route`) and calls
    `subdivide(choose, record)`. Each round pops the oldest live cone, asks
    `choose` for its point x = (1/p) * sum z_g * g as (z, p), builds x
    once with _combine, and replaces every holder that `cones_containing`
    returns by its children (`split`), handing each split to `record` as
    (parent, p, z, x, children), with z moved into that parent's slots.
    Then it routes the round's children. A cone is finished, and goes to
    the list `done` instead of the live set, when its multiplicity is a
    power of two at most `top`: math.inf in phase 1, 1 in phase 2. No
    later point lies in a finished cone (run_p2t and refine_to_unimodular
    say why), so it takes no part in the index. Phase 2 passes no `record`:
    a yield per round, or a Python call per child, cost it a few percent.

    The ray index maps each generator vector to the uids of the live cones
    that hold it. It is keyed by the vector, not by its primitive direction,
    because every ray of the live tiling carries exactly one generator
    vector. The cones a phase routes in must have this property: one cone
    has it, and so does any set of cones from an earlier engine's
    tiling. Every split keeps it. Say x lies on a ray R, and a live cone C
    has a generator y on R. Then x is a positive multiple of y, so the
    producer holds y, x's support is {y}, and C, a holder of y, is split
    with x's coordinates zero but in y's slot. No split point is one of the
    split cone's generators (_split_at), so C's only child replaces y by x.
    Every live cone with a generator on R holds x there afterwards, and no
    other ray gains a vector. A finished cone has no generator y on R
    either: it would hold x's support {y} and so contain x, which no
    finished cone does. Primitivity plays no part, and the generators are not
    all primitive: order-p and halving points are often multiples of a
    lattice vector.
    """

    def __init__(self, next_uid: int, top: float):
        self.cones: dict[int, SimplicialCone] = {}
        self.ray_index: dict[LatticeVector, set[int]] = {}
        self.pending: deque[int] = deque()
        self.uid_source = count(next_uid)
        self.top = top
        self.done: list[SimplicialCone] = []

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

    def route(self, cones: Iterable[SimplicialCone]) -> None:
        """Append each finished cone to `done` and add each other one."""
        top, done = self.top, self.done
        for cone in cones:
            mu = abs(cone.det)
            if mu & (mu - 1) or mu > top:
                self.add(cone)
            else:
                done.append(cone)

    def pop(self) -> SimplicialCone | None:
        """The oldest live cone, or None; skips uids split since queued."""
        while self.pending:
            cone = self.cones.get(self.pending.popleft())
            if cone is not None:
                return cone
        return None

    def subdivide(self, choose: Callable, record: Callable | None = None) -> None:
        """The loop of the class docstring."""
        while (cone := self.pop()) is not None:
            z, p = choose(cone)
            x = _combine(cone, z, p)
            born = []
            for parent, moved in self.cones_containing(cone, z):
                children = self.split(parent, x, moved, p)
                born += children
                if record is not None:
                    record(parent, p, moved, x, children)
            # The holder list is fixed before the first split, so routing the
            # round's children after it leaves uids and the queue in order.
            self.route(born)
            assert cone.uid not in self.cones, "the popped cone must get split"

    def split(
        self, parent: SimplicialCone, x: LatticeVector, z: tuple[int, ...], p: int
    ) -> list[SimplicialCone]:
        """Take a live cone out of the live set and the ray index, and
        return its children at x = (1/p) * sum z_g * g (_split_at; z as
        cones_containing moved it over), for the caller to route."""
        uid = parent.uid
        del self.cones[uid]
        index = self.ray_index
        for g in parent.generators:
            bucket = index[g]
            bucket.discard(uid)
            if not bucket:
                del index[g]
        return _split_at(parent, x, z, p, self.uid_source)

    def cones_containing(
        self, producer: SimplicialCone, z: tuple[int, ...]
    ) -> list[tuple[SimplicialCone, tuple[int, ...]]]:
        """Live cones containing x = (1/p) * sum z_g * g, with x's
        coefficients over each, in uid order.

        z are x's coefficients over the producer, in slot order, and p is
        their denominator: find_x's prime in phase 1, 2 for half_vector's
        indicator in phase 2. No coordinates are computed, and neither x
        nor p is an argument: the other cones' coefficients follow from z
        by this lemma. Let
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
            # Interior point: no other cone can contain it. 29-50% of calls on
            # the benchmark workloads; dropping this branch slowed heavy-d4 by 5-8%.
            return [(producer, z)]
        support = [(g, c) for g, c in zip(producer.generators, z) if c]
        cones = self.cones
        out = []
        for uid in sorted(set.intersection(*[self.ray_index[g] for g, _ in support])):
            cone = cones[uid]
            slot = cone.generators.index
            moved = [0] * len(z)
            for g, c in support:
                moved[slot(g)] = c
            out.append((cone, tuple(moved)))
        return out


def run_p2t(base: SimplicialCone) -> P2TState:
    """Subdivide until every multiplicity is a power of two.

    Phase 1 runs the loop of _Engine with its own point, finished rule and
    record. A popped cone is split at x' = (1/p) * sum z'_g * g, with p
    the largest prime factor of its multiplicity and z' =
    adjust_coefficients(find_x). A power-of-two cone is finished, and the
    tiling lists those in creation order. One TraceEvent records each
    split: the trace is the phase's certificate, which audit_trace replays
    and `conetri run --trace` writes out.

    Every nonzero z'_g is nonzero mod p, because adjust_coefficients only
    adds multiples of p to a residue in (0, p), so p divides every holder's
    det (_split_at), and a power-of-two cone is never a holder and is never
    split again. So the live set ends empty, and all_created, the trace and
    every uid are as if the power-of-two cones had stayed live.

    Args:
        base: the cone to triangulate (normally from make_cone).

    Returns:
        P2TState whose triangulation tiles `base` with cones of power-of-two
        multiplicity, plus the full subdivision trace.
    """
    def choose(cone: SimplicialCone) -> tuple[tuple[int, ...], int]:
        p = p_max(factorize(abs(cone.det)))
        return adjust_coefficients(find_x(cone, p), p), p

    engine = _Engine(base.uid + 1, math.inf)
    engine.route([base])
    created = [base]
    trace: list[TraceEvent] = []

    def record(parent, p, z, x_prime, children):
        # Fields in order: keywords would double the cost of building one.
        trace.append(
            TraceEvent(
                parent.uid,
                p,
                tuple([c % p for c in z]),
                z,
                x_prime,
                children[0].max_label(),
                tuple([c.uid for c in children]),
                abs(parent.det),
                tuple([abs(c.det) for c in children]),
            )
        )
        created.extend(children)

    engine.subdivide(choose, record)
    return P2TState(Triangulation(base, engine.done, created), trace)
