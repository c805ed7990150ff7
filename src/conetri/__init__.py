"""Unimodular triangulation of simplicial lattice cones by short vectors.

The pipeline has two phases. run_p2t subdivides a cone until every piece has
power-of-two multiplicity, steering each step with an order-p lattice point
whose coefficients are kept small or repaired into powers of two; the
potential phi of every touched multiplicity drops by at least 1 per step.
refine_to_unimodular then halves the power-of-two multiplicities down to 1
using half-integer generator sums. certify re-checks the outcome from
scratch: exact tiling volume, containment, the phi descent, and the proven
ceilings on how long the final generators can get.
"""

from .cone_geometry import (
    DilationFactor,
    LatticeVector,
    SimplicialCone,
    Triangulation,
    barycentric,
    contains,
    dilation,
    half_vector,
    make_cone,
    order_p_element,
    par_normalize,
    stellar_subdivide,
)
from .errors import (
    ConetriError,
    ContainmentError,
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
    prime_pi,
    rosser_bound,
)
from .p2t_engine import (
    P2TState,
    TraceEvent,
    adjust_coefficients,
    coefficient_ok_protected,
    find_x,
    run_p2t,
)
from .pow2_refiner import (
    hk_bound,
    hk_exact,
    refine_isolated,
    refine_to_unimodular,
)
from .verifier import (
    CertificateReport,
    audit_trace,
    certify,
    final_bounds,
    max_dilation,
    verify_triangulation,
)

__all__ = [
    "CertificateReport",
    "ConetriError",
    "ContainmentError",
    "DilationFactor",
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
    "barycentric",
    "certify",
    "coefficient_ok_protected",
    "contains",
    "dilation",
    "eta",
    "factorize",
    "final_bounds",
    "find_x",
    "half_vector",
    "hk_bound",
    "hk_exact",
    "is_prime",
    "make_cone",
    "max_dilation",
    "odd_adjust",
    "order_p_element",
    "p_max",
    "par_normalize",
    "phi",
    "prime_pi",
    "refine_isolated",
    "refine_to_unimodular",
    "rosser_bound",
    "run_p2t",
    "stellar_subdivide",
    "verify_triangulation",
]

__version__ = "0.1.0"
