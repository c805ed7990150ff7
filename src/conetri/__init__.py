"""Unimodular triangulation of simplicial lattice cones by short vectors.

The pipeline has two phases. run_p2t subdivides a cone until every piece has
power-of-two multiplicity, steering each step with an order-p lattice point
whose coefficients are kept small or repaired into powers of two; the
potential phi of every touched multiplicity drops by at least 1 per step.
refine_to_unimodular then halves the power-of-two multiplicities down to 1
using half-integer generator sums. certify re-checks the outcome: exact
tiling volume, containment, the phi descent, and the proven ceilings on how
long the final generators can get. It recomputes coordinates, potentials,
dilations and every det from the generators, and reads phase 1's trace as
given; the trace is the only phase 1 record it reads.

__all__ is the public surface; every other name may change.
"""

from .cone_geometry import SimplicialCone, make_cone
from .errors import (
    ConetriError,
    DimensionError,
    PhaseOrderError,
    PrimitivityError,
    SearchExhaustedError,
    SingularMatrixError,
)
from .p2t_engine import TraceEvent, run_p2t
from .pow2_refiner import refine_to_unimodular
from .verifier import (
    CertificateReport,
    Certificates,
    certify,
    final_bounds,
    intermediate_mu_ceiling,
)

__all__ = [
    "CertificateReport",
    "Certificates",
    "ConetriError",
    "DimensionError",
    "PhaseOrderError",
    "PrimitivityError",
    "SearchExhaustedError",
    "SimplicialCone",
    "SingularMatrixError",
    "TraceEvent",
    "certify",
    "final_bounds",
    "intermediate_mu_ceiling",
    "make_cone",
    "refine_to_unimodular",
    "run_p2t",
]

__version__ = "0.1.0"
