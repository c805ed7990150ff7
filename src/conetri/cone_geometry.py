"""Simplicial lattice cones and the subdivision primitives built on them.

A simplicial cone is stored as an ordered tuple of d independent integer
generators in Z^d. Its multiplicity is |det| of the generator matrix; a cone
is unimodular when that is 1. Each generator slot also carries a label:
-1..-d name the original base generators, and a subdivision vector gets
one more than the largest label of the cone it splits. Labels are what the
length certificates are stated in terms of; a cone's newest label always
sits on one of its own generators.

All coordinate computations are exact, and the base is the only cone whose
coordinates are computed: the verifier measures every generator against it
through coordinate_rows. The subdivision engine computes none. Both phases
make their split points from known coefficients (order_p_element's z;
half_vector's subset, with p = 2 and z_g = 1): x = (1/p) * sum z_g * g over
generators g of the producer. Every cone holding those generators has the
same coefficients on them (see p2t_engine._Engine.cones_containing), so its
numerators (det times x's coordinates) are det * z_g / p, and a child's
multiplicity is its parent's numerator in the replaced slot.

A cone stores no ray directions. A stellar subdivision puts its vector into
every live cone that contains it, so each ray of a tiling the engine keeps
carries exactly one generator vector, and the engine's ray index
(p2t_engine._Engine) is keyed by the generator vectors themselves.
"""

from __future__ import annotations

from math import gcd
from operator import index
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DimensionError,
    DivisibilityError,
    PrimitivityError,
    SingularMatrixError,
)
# perfbench's tracer patches these names here, unused invert_unimodular too.
from .exact_linalg import (
    IntMatrix,
    adjugate,
    determinant,
    invert_unimodular,
    nullspace_mod2,
    smith_normal_form,
)

LatticeVector = tuple[int, ...]

def vector_content(v: Sequence[int]) -> int:
    """gcd of the coordinates; 0 only for the zero vector."""
    g = 0
    for c in v:
        g = gcd(g, c)
    return g


def primitive_direction(v: Sequence[int]) -> LatticeVector:
    """The shortest lattice vector on the same ray."""
    g = vector_content(v)
    if g == 0:
        raise ValueError("the zero vector has no direction")
    return tuple(c // g for c in v)


class SimplicialCone:
    """An ordered simplicial lattice cone with one label per generator.

    The constructor only stores its four fields: det is the signed
    determinant of the generator matrix, and uid numbers the cones of one
    run. It checks nothing. make_cone is the one checked entry and builds
    the base (uid 0); the subdivision engines build children whose det they
    already know, and those generators need not be primitive.

    Slots keep the per-cone footprint small; refinement runs routinely
    hold hundreds of thousands of cones at once.
    """

    __slots__ = (
        "generators",
        "labels",
        "uid",
        "det",
    )

    def __init__(
        self,
        generators: tuple[LatticeVector, ...],
        labels: tuple[int, ...],
        uid: int,
        det: int,
    ):
        self.generators = generators
        self.labels = labels
        self.uid = uid
        self.det = det

    @property
    def dimension(self) -> int:
        return len(self.generators)

    @property
    def multiplicity(self) -> int:
        return abs(self.det)

    def matrix(self) -> IntMatrix:
        """Generator matrix with the generators as columns."""
        return tuple(zip(*self.generators))

    def max_label(self) -> int:
        """Newest label on the cone (-1 on a fresh base)."""
        return max(self.labels)

    def __repr__(self) -> str:
        return f"SimplicialCone(uid={self.uid}, mu={self.multiplicity}, gens={self.generators})"


def _entry(c: object) -> int:
    """A generator entry as an int; TypeError names any other entry."""
    if not isinstance(c, bool):
        try:
            return index(c)
        except TypeError:
            pass
    raise TypeError(f"generator entry {c!r} is not an integer")


def make_cone(generators: Sequence[Sequence[int]]) -> SimplicialCone:
    """Build a base cone from primitive, independent generators.

    Args:
        generators: d integer vectors of length d, each primitive. An
            entry may be of any integer type (one with __index__), not a
            bool.

    Returns:
        The base cone, with generator i labelled -(i+1).

    Raises:
        TypeError: an entry is not an integer (say 1.7 or "3"), or is a bool.
        DimensionError: fewer than 2 generators, or lengths off.
        PrimitivityError: a generator is a proper multiple of a lattice vector.
        SingularMatrixError: the generators are dependent.
    """
    gens = tuple(tuple(_entry(c) for c in g) for g in generators)
    if len(gens) < 2:
        raise DimensionError("need dimension at least 2")
    if any(len(g) != len(gens) for g in gens):
        raise DimensionError("need d generators of length d")
    for g in gens:
        if vector_content(g) != 1:
            raise PrimitivityError(f"generator {g} is not primitive")
    det = determinant(tuple(zip(*gens)))
    if det == 0:
        raise SingularMatrixError("generators are linearly dependent")
    labels = tuple(-(i + 1) for i in range(len(gens)))
    return SimplicialCone(gens, labels, 0, det)


def coordinate_rows(cone: SimplicialCone) -> IntMatrix:
    """sign(det) * adjugate of the generator matrix: row i dotted with x is
    |det| times x's i-th barycentric coordinate, so x lies in the closed
    cone exactly when no row gives a negative value."""
    sign = 1 if cone.det > 0 else -1
    adj = adjugate(cone.matrix())
    return tuple(tuple([sign * a for a in row]) for row in adj)


def order_p_element(cone: SimplicialCone, p: int) -> tuple[int, ...]:
    """Box coefficients of a lattice point of order exactly p in the box
    group of the cone.

    Read off the Smith normal form L @ M @ R = diag(s_1..s_d) of the
    generator matrix M (generators as columns), so the choice is
    deterministic. Since M @ R = L^-1 @ diag(s), the integral point
    (s_d / p) * L^-1[:, -1] equals (1/p) * M @ r for r = R[:, -1], that
    is (1/p) * sum_j r_j * g_j. Reducing it into the half-open box takes
    each r_j mod p, so neither L nor the rest of R is needed:
    smith_normal_form replays its column operations on e_d to get r alone.
    R is unimodular, so r is primitive and some z_j = r_j mod p is nonzero:
    the point is not in the generator lattice, while p times it is.

    Args:
        cone: the cone; its multiplicity must be divisible by p.
        p: a prime divisor of the multiplicity.

    Returns:
        z, each entry in [0, p) and in slot order, such that the point
        x = (1/p) * sum z_j * g_j (build it with _combine) is integral, has
        barycentric coordinates in [0, 1), and is not in the generator
        lattice while p*x is.

    Raises:
        DivisibilityError: if p does not divide the multiplicity.
    """
    if p < 2 or cone.multiplicity % p != 0:
        raise DivisibilityError(
            f"{p} does not divide multiplicity {cone.multiplicity}"
        )
    diag, r = smith_normal_form(cone.matrix())
    # The largest elementary divisor is a multiple of every prime divisor
    # of the multiplicity, p included.
    assert diag[-1] % p == 0
    z = tuple([c % p for c in r])
    assert any(z), "order-p element collapsed to the lattice"
    return z


def _combine(cone: SimplicialCone, z: Iterable[int], p: int) -> LatticeVector:
    """(1/p) * sum z_i * g_i, asserting that it is a lattice point."""
    acc = [0] * cone.dimension
    for zi, g in zip(z, cone.generators):
        if zi:
            for i, c in enumerate(g):
                acc[i] += zi * c
    assert all(c % p == 0 for c in acc)
    return tuple(c // p for c in acc)


def half_vector(cone: SimplicialCone) -> tuple[LatticeVector, tuple[int, ...]] | None:
    """Half the sum of a nonempty generator subset that lands in the lattice.

    Returns (u, slots): the lattice point u = (1/2) * sum_{j in slots} g_j
    and the subset's slot indices in increasing order, so u's barycentric
    coordinates are 1/2 on slots and 0 elsewhere. Returns None when the
    multiplicity is odd (no such subset exists).

    Uses the mod-2 kernel basis of the generators (nullspace_mod2, which
    takes them as columns). Any nonzero kernel element gives a valid
    subset; the smallest subset is chosen (ties broken by the
    lexicographically least indicator) because the subset size is the
    number of children the subdivision at u produces.

    Subsets are nullspace_mod2's bitmasks: generator i is bit d-1-i, so the
    indicator tuple (ind_0, ..., ind_{d-1}) read as a binary numeral is the
    mask. Two masks with the same popcount compare as ints exactly as their
    indicator tuples compare lexicographically (the first differing
    indicator is the highest differing bit), so min by (popcount, mask) is
    min by (sum(ind), tuple(ind)). Kernels of dimension above 12 are not
    enumerated; the lightest vector of the basis is taken.
    """
    gens = cone.generators
    d = len(gens)
    kernel = nullspace_mod2(gens)
    if not kernel:
        return None
    if len(kernel) == 1:
        # The usual case: the only nonzero kernel element.
        best = kernel[0]
    elif len(kernel) <= 12:
        # Every nonzero kernel element, as the xor of a nonempty set of
        # basis masks.
        span = [0]
        for k in kernel:
            span += [s ^ k for s in span]
        best = min(span[1:], key=lambda m: (m.bit_count(), m))
    else:
        best = min(kernel, key=lambda m: (m.bit_count(), m))
    slots = tuple([i for i in range(d) if best >> (d - 1 - i) & 1])
    acc = [sum(col) for col in zip(*[gens[i] for i in slots])]
    assert all(c % 2 == 0 for c in acc)
    return tuple([c // 2 for c in acc]), slots


def _split_at(
    cone: SimplicialCone,
    x: LatticeVector,
    nums: tuple[int, ...],
    new_label: int,
    uid_source: Iterator[int],
) -> list[SimplicialCone]:
    """Build the children of a subdivision whose numerators are known.

    The caller guarantees that nums are det times x's coordinates over the
    cone (so of det's sign) and that x is not one of its generators (see
    p2t_engine.run_p2t, which passes det/p times the coefficients z' that
    _Engine.cones_containing put in the cone's slots). Each slot i with
    nums[i] != 0 gets a child with generator i replaced by x; by Cramer's
    rule its det is nums[i].
    """
    gens = cone.generators
    labels = cone.labels
    return [
        SimplicialCone(
            gens[:i] + (x,) + gens[i + 1 :],
            labels[:i] + (new_label,) + labels[i + 1 :],
            next(uid_source),
            n,
        )
        for i, n in enumerate(nums)
        if n
    ]


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
