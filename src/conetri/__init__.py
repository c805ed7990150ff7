"""Unimodular triangulation of simplicial lattice cones by short vectors.

The pipeline has two phases. run_p2t subdivides a cone until every piece has
power-of-two multiplicity, steering each step with an order-p lattice point
whose coefficients are kept small or repaired into powers of two; the
potential phi of every touched multiplicity drops by at least 1 per step.
refine_to_unimodular then halves the power-of-two multiplicities down to 1
using half-integer generator sums. certify re-checks the outcome: exact
tiling volume, containment, the phi descent, and the proven ceilings on how
long the final generators can get. It recomputes coordinates, potentials
and dilations, but reads each cone's stored det, the trace's multiplicities
and the phase 1 creation history as given.
"""

from .cone_geometry import (
    LatticeVector,
    SimplicialCone,
    Triangulation,
    half_vector,
    make_cone,
    order_p_element,
)
from .errors import (
    ConetriError,
    DimensionError,
    DivisibilityError,
    PhaseOrderError,
    PrimitivityError,
    SearchExhaustedError,
    SingularMatrixError,
)
from .number_theory import (
    Factorization,
    eta,
    factorize,
    is_prime,
    odd_adjust,
    p_max,
    phi,
)
from .p2t_engine import (
    P2TState,
    TraceEvent,
    adjust_coefficients,
    coefficient_ok_protected,
    find_x,
    run_p2t,
)
from .pow2_refiner import refine_to_unimodular
from .verifier import (
    CertificateReport,
    Certificates,
    audit_trace,
    certify,
    final_bounds,
)

__all__ = [
    "CertificateReport",
    "Certificates",
    "ConetriError",
    "DimensionError",
    "DivisibilityError",
    "Factorization",
    "LatticeVector",
    "P2TState",
    "PhaseOrderError",
    "PrimitivityError",
    "SearchExhaustedError",
    "SimplicialCone",
    "SingularMatrixError",
    "TraceEvent",
    "Triangulation",
    "adjust_coefficients",
    "audit_trace",
    "certify",
    "coefficient_ok_protected",
    "eta",
    "factorize",
    "final_bounds",
    "find_x",
    "half_vector",
    "is_prime",
    "make_cone",
    "odd_adjust",
    "order_p_element",
    "p_max",
    "phi",
    "refine_to_unimodular",
    "run_p2t",
]

__version__ = "0.1.0"
