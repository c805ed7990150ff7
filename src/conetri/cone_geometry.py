"""Simplicial lattice cones and the subdivision primitives built on them.

A simplicial cone is stored as an ordered tuple of d independent integer
generators in Z^d. Its multiplicity is |det| of the generator matrix; a cone
is unimodular when that is 1. Each generator slot also carries a label:
-1..-d name the original base generators, and a subdivision vector gets
one more than the largest label of the cone it splits. Labels are what the
length certificates are stated in terms of; a cone's newest label always
sits on one of its own generators.

All coordinate computations are exact. Barycentric coordinates come from the
cached adjugate of the generator matrix, so containment tests and child
multiplicities are pure integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence

from .errors import (
    ContainmentError,
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

# A dilation factor is the sum of barycentric coordinates of a point with
# respect to a cone's generators: 1 on the generators themselves, and the
# factor by which the basic simplex must be dilated to reach the point.
DilationFactor = Fraction


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

    Construct base cones through make_cone; children come out of
    stellar_subdivide. Direct construction skips the primitivity check,
    which intermediate cones are allowed to fail.

    Slots keep the per-cone footprint small; refinement runs routinely
    hold hundreds of thousands of cones at once.
    """

    __slots__ = (
        "generators",
        "labels",
        "uid",
        "det",
        "_adj",
        "_dirs",
    )

    def __init__(
        self,
        generators: Sequence[Sequence[int]],
        labels: Sequence[int],
        uid: int = 0,
        det: int | None = None,
    ):
        gens = tuple(tuple(int(c) for c in g) for g in generators)
        d = len(gens)
        if d == 0 or any(len(g) != d for g in gens):
            raise DimensionError("need d generators of length d")
        if len(labels) != d:
            raise DimensionError("one label per generator")
        self.generators = gens
        self.labels = tuple(labels)
        self.uid = uid
        self._adj = None
        self._dirs = None
        if det is None:
            det = determinant(self.matrix())
        if det == 0:
            raise SingularMatrixError("generators are linearly dependent")
        self.det = det

    @classmethod
    def _child(
        cls,
        generators: tuple[LatticeVector, ...],
        labels: tuple[int, ...],
        uid: int,
        det: int,
        adj: IntMatrix | None = None,
        dirs: tuple[LatticeVector, ...] | None = None,
    ) -> "SimplicialCone":
        """Trusted constructor for subdivision children: no validation, and
        optionally precomputed cached properties."""
        cone = cls.__new__(cls)
        cone.generators = generators
        cone.labels = labels
        cone.uid = uid
        cone.det = det
        cone._adj = adj
        cone._dirs = dirs
        return cone

    @property
    def dimension(self) -> int:
        return len(self.generators)

    @property
    def multiplicity(self) -> int:
        return abs(self.det)

    def matrix(self) -> IntMatrix:
        """Generator matrix with the generators as columns."""
        return tuple(zip(*self.generators))

    @property
    def _adjugate(self) -> IntMatrix:
        adj = self._adj
        if adj is None:
            adj = adjugate(self.matrix())
            self._adj = adj
        return adj

    @property
    def ray_directions(self) -> tuple[LatticeVector, ...]:
        """Primitive direction of each generator, in slot order."""
        dirs = self._dirs
        if dirs is None:
            dirs = tuple(primitive_direction(g) for g in self.generators)
            self._dirs = dirs
        return dirs

    def coeff_numerators(self, x: Sequence[int]) -> tuple[int, ...]:
        """det * barycentric(x), as exact integers."""
        if len(x) != self.dimension:
            raise DimensionError("point dimension mismatch")
        return tuple(
            sum(map(int.__mul__, row, x)) for row in self._adjugate
        )

    def max_label(self) -> int:
        """Newest label on the cone (-1 on a fresh base)."""
        return max(self.labels)

    def __repr__(self) -> str:
        return f"SimplicialCone(uid={self.uid}, mu={self.multiplicity}, gens={self.generators})"


def make_cone(generators: Sequence[Sequence[int]]) -> SimplicialCone:
    """Build a base cone from primitive, independent generators.

    Args:
        generators: d integer vectors of length d, each primitive.

    Returns:
        The base cone, with generator i labelled -(i+1).

    Raises:
        DimensionError: fewer than 2 generators, or lengths off.
        PrimitivityError: a generator is a proper multiple of a lattice vector.
        SingularMatrixError: the generators are dependent.
    """
    gens = tuple(tuple(int(c) for c in g) for g in generators)
    if len(gens) < 2:
        raise DimensionError("need dimension at least 2")
    if any(len(g) != len(gens) for g in gens):
        raise DimensionError("need d generators of length d")
    for g in gens:
        if vector_content(g) != 1:
            raise PrimitivityError(f"generator {g} is not primitive")
    labels = tuple(-(i + 1) for i in range(len(gens)))
    return SimplicialCone(gens, labels, uid=0)


def barycentric(cone: SimplicialCone, x: Sequence[int]) -> tuple[Fraction, ...]:
    """Coordinates of x in the generator basis, as exact Fractions."""
    nums = cone.coeff_numerators(x)
    return tuple(Fraction(n, cone.det) for n in nums)


def contains(cone: SimplicialCone, x: Sequence[int]) -> bool:
    """Whether x lies in the closed cone."""
    sign = 1 if cone.det > 0 else -1
    return all(n * sign >= 0 for n in cone.coeff_numerators(x))


def dilation(base: SimplicialCone, x: Sequence[int]) -> DilationFactor:
    """Sum of barycentric coordinates of x with respect to `base`.

    This is the linear functional that is 1 on every base generator, so it
    measures how far out x sits: dilation(v_i) == 1, dilation(0) == 0.

    Raises:
        ContainmentError: if x is not in the cone.
    """
    nums = cone_sign_checked(base, x)
    return Fraction(sum(nums), base.det)


def cone_sign_checked(cone: SimplicialCone, x: Sequence[int]) -> tuple[int, ...]:
    """coeff_numerators, raising ContainmentError on any negative coordinate."""
    nums = cone.coeff_numerators(x)
    sign = 1 if cone.det > 0 else -1
    if any(n * sign < 0 for n in nums):
        raise ContainmentError(f"{tuple(x)} lies outside the cone")
    return nums


def par_normalize(cone: SimplicialCone, x: Sequence[int]) -> LatticeVector:
    """Reduce x modulo the generator lattice into the half-open box.

    The result y has barycentric coordinates in [0, 1) and x - y is an
    integer combination of the generators.
    """
    nums = cone.coeff_numerators(x)
    floors = [n // cone.det for n in nums]
    result = list(x)
    for f, g in zip(floors, cone.generators):
        if f:
            for i, c in enumerate(g):
                result[i] -= f * c
    return tuple(result)


def order_p_element(cone: SimplicialCone, p: int) -> LatticeVector:
    """A lattice point of order exactly p in the box group of the cone.

    Read off the Smith normal form L @ M @ R = diag(s_1..s_d) of the
    generator matrix M (generators as columns), so the choice is
    deterministic. Since M @ R = L^-1 @ diag(s), the integral point
    (s_d / p) * L^-1[:, -1] equals (1/p) * M @ R[:, -1], that is
    (1/p) * sum_j R[j][-1] * g_j. Reducing it into the half-open box takes
    each R[j][-1] mod p, so L is never needed. R is unimodular, so R[:, -1]
    is primitive and some z_j = R[j][-1] mod p is nonzero: x is not in the
    generator lattice, while p * x is.

    Args:
        cone: the cone; its multiplicity must be divisible by p.
        p: a prime divisor of the multiplicity.

    Returns:
        x with p*x in the generator lattice, x not in it, and barycentric
        coordinates in [0, 1).

    Raises:
        DivisibilityError: if p does not divide the multiplicity.
    """
    if p < 2 or cone.multiplicity % p != 0:
        raise DivisibilityError(
            f"{p} does not divide multiplicity {cone.multiplicity}"
        )
    diag, rmat = smith_normal_form(cone.matrix())
    # The largest elementary divisor is a multiple of every prime divisor
    # of the multiplicity, p included.
    assert diag[-1] % p == 0
    z = [row[-1] % p for row in rmat]
    assert any(z), "order-p element collapsed to the lattice"
    return _combine(cone, z, p)


def _combine(cone: SimplicialCone, z: Iterable[int], p: int) -> LatticeVector:
    """(1/p) * sum z_i * g_i, asserting that it is a lattice point."""
    acc = [0] * cone.dimension
    for zi, g in zip(z, cone.generators):
        if zi:
            for i, c in enumerate(g):
                acc[i] += zi * c
    assert all(c % p == 0 for c in acc)
    return tuple(c // p for c in acc)


def box_coefficients(cone: SimplicialCone, x: Sequence[int], p: int) -> tuple[int, ...]:
    """Integers z with x == (1/p) * sum z_i * g_i, each in [0, p).

    Raises:
        DivisibilityError: if p * x is not in the generator lattice.
    """
    nums = cone.coeff_numerators(x)
    z = []
    for n in nums:
        num = p * n
        if num % cone.det:
            raise DivisibilityError(f"{tuple(x)} has no order-{p} representation")
        z.append((num // cone.det) % p)
    return tuple(z)


def half_vector(cone: SimplicialCone) -> LatticeVector | None:
    """Half the sum of a nonempty generator subset that lands in the lattice.

    Uses the mod-2 kernel of the generator matrix; returns None when the
    multiplicity is odd (no such subset exists). Any nonzero kernel element
    gives a valid subset; the smallest subset is chosen (ties broken by the
    lexicographically least indicator) because the subset size is the number
    of children the subdivision at u produces.
    """
    kernel = nullspace_mod2(cone.matrix())
    if not kernel:
        return None
    d = cone.dimension
    r = len(kernel)
    if r <= 12:
        best: tuple[int, tuple[int, ...]] | None = None
        for mask in range(1, 1 << r):
            ind = [0] * d
            for b in range(r):
                if (mask >> b) & 1:
                    vec = kernel[b]
                    ind = [a ^ v for a, v in zip(ind, vec)]
            key = (sum(ind), tuple(ind))
            if best is None or key < best:
                best = key
        k = best[1]
    else:
        # Kernel too large to enumerate: settle for the lightest basis vector.
        k = min(kernel, key=lambda vec: (sum(vec), vec))
    acc = [0] * d
    for i, bit in enumerate(k):
        if bit:
            for j, c in enumerate(cone.generators[i]):
                acc[j] += c
    assert all(c % 2 == 0 for c in acc)
    return tuple(c // 2 for c in acc)


def stellar_subdivide(
    cone: SimplicialCone,
    x: Sequence[int],
    uid_source: Iterator[int] | None = None,
) -> list[SimplicialCone]:
    """Split a cone at an interior or boundary lattice point.

    One child per generator with positive barycentric coordinate; in child i
    the generator g_i is replaced by x and its slot gets the label
    max_label() + 1. Child multiplicities are lambda_i * mu, exact integers.

    If x equals a stored generator the subdivision does nothing and the cone
    itself is returned unchanged (the single "child" would be the parent).

    Args:
        cone: the cone to subdivide.
        x: nonzero lattice point inside the cone.
        uid_source: iterator yielding uids for the children.

    Raises:
        ValueError: if x is the zero vector.
        ContainmentError: if x lies outside the cone.
    """
    x = tuple(int(c) for c in x)
    if all(c == 0 for c in x):
        raise ValueError("cannot subdivide at the apex")
    nums = cone_sign_checked(cone, x)
    positive = [i for i, n in enumerate(nums) if n != 0]
    assert positive, "nonzero point with all-zero coordinates"
    if len(positive) == 1 and nums[positive[0]] == cone.det:
        # x is exactly the stored generator on that ray: nothing to split.
        return [cone]
    return _split_at(cone, x, nums, positive, cone.max_label() + 1, uid_source)


def _split_at(
    cone: SimplicialCone,
    x: LatticeVector,
    nums: tuple[int, ...],
    positive: list[int],
    new_label: int,
    uid_source: Iterator[int] | None,
    x_dir: LatticeVector | None = None,
) -> list[SimplicialCone]:
    """Build the children of a subdivision whose numerators are known.

    The caller guarantees that nums == cone.coeff_numerators(x), that the
    signs are consistent with cone.det, and that the split is not a no-op.
    """
    d = cone.dimension
    adj = cone._adjugate
    det = cone.det
    gens = cone.generators
    labels = cone.labels
    parent_dirs = cone._dirs
    if parent_dirs is not None and x_dir is None:
        x_dir = primitive_direction(x)
    children = []
    for i in positive:
        child_gens = gens[:i] + (x,) + gens[i + 1 :]
        child_labels = labels[:i] + (new_label,) + labels[i + 1 :]
        uid = next(uid_source) if uid_source is not None else 0
        ni = nums[i]
        if ni == 1 or ni == -1:
            # Unimodular child: it is never subdivided again, so its
            # adjugate is left to the lazy path in the rare case it is asked
            # for.
            child_adj = None
        else:
            # Cramer: replacing column i by x changes the determinant to
            # nums[i], and the new adjugate follows by an exact rank-one
            # update.
            row_i = adj[i]
            rows = []
            for j in range(d):
                if j == i:
                    rows.append(row_i)
                    continue
                nj = nums[j]
                row_j = adj[j]
                if nj == 0:
                    rows.append(tuple(ni * a // det for a in row_j))
                else:
                    rows.append(
                        tuple((ni * a - nj * b) // det for a, b in zip(row_j, row_i))
                    )
            child_adj = tuple(rows)
        dirs = (
            parent_dirs[:i] + (x_dir,) + parent_dirs[i + 1 :]
            if parent_dirs is not None
            else None
        )
        children.append(
            SimplicialCone._child(
                child_gens, child_labels, uid, ni, child_adj, dirs
            )
        )
    return children


@dataclass
class Triangulation:
    """A tiling of a base cone by simplicial cones, plus creation history.

    `cones` is the current tiling in creation order; `all_created` also keeps
    every intermediate cone that was later subdivided away. Both start as
    [base]. all_created is the label history: every subdivision vector is
    the newest-label generator of the cones its split created, so each
    (label, vector) pair can be read off those cones. Producers whose
    intermediates nobody audits (unimodular refinement) may set
    all_created = cones.
    """

    base: SimplicialCone
    cones: list[SimplicialCone] = field(default_factory=list)
    all_created: list[SimplicialCone] = field(default_factory=list)

    @staticmethod
    def trivial(base: SimplicialCone) -> "Triangulation":
        return Triangulation(base, [base], [base])

    def max_uid(self) -> int:
        return max(c.uid for c in self.all_created)

    def multiplicities(self) -> list[int]:
        return [c.multiplicity for c in self.cones]
