"""Spectral solver and exact verifier for (∂^k∂̄^k + c)u = f on L²(ℂ, e^{−|z|²}).

The package constructs minimum-norm weak solutions spectrally in the complex
Hermite basis, certifies the squared-norm contraction 1/(k!)² at machine
precision, and machine-checks the underlying operator identities in exact
rational arithmetic.
"""

from .basis import HermiteCoeffs, to_hermite, to_monomial
from .identities import (
    run_identity_suite,
    run_weight_identity_suite,
    verify_adjoint_norm_split,
    verify_coercivity,
    verify_quadratic_form,
    verify_weight_identity_k1,
)
from .numerics import QuadratureRule, project, synthesize
from .ring import ExactScalar, PolyZZbar
from .solver import (
    CERTIFICATION_C_GRID,
    DiskProblem,
    ProblemSpec,
    ScaledProblem,
    SolveReport,
    certify_sweep,
    operator_norm_probe,
    solve,
    solve_disk,
    solve_scaled,
)

__version__ = "0.1.0"
