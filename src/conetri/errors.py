"""Shared exception types.

Everything that can go wrong by construction (bad shapes, singular input,
non-primitive generators, ...) raises one of these instead of a bare exception,
so callers can distinguish contract violations from genuine bugs.
"""


class ConetriError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(ConetriError, ValueError):
    """A matrix or vector has the wrong shape for the requested operation."""


class SingularMatrixError(ConetriError, ValueError):
    """A matrix required to be invertible has determinant zero."""


class PrimitivityError(ConetriError, ValueError):
    """A base cone generator is an integer multiple of a shorter lattice vector."""


class DivisibilityError(ConetriError, ValueError):
    """A prime does not divide the multiplicity it was supposed to divide."""


class PhaseOrderError(ConetriError, RuntimeError):
    """A stage received cones that the previous stage should have reduced first."""


class SearchExhaustedError(ConetriError, RuntimeError):
    """An enumeration that is guaranteed to succeed came up empty.

    Raising this means an internal invariant is broken; it is never the
    caller's fault.
    """
