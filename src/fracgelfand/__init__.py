"""Radial solver and analysis toolkit for the fractional Gelfand problem.

The package computes with (-Delta)^s u = lam e^u on the unit ball:
closed-form constants and Gamma identities (constants), the boundedness
threshold analyzer (threshold), a dense radial discretization of the
fractional Laplacian with prescribed exterior data (fraclap), peak-continuation
of the solution branch with fold detection and stability analysis (gelfand),
and a deterministic command-line front end (cli).
"""

from .constants import (
    DomainError,
    ProblemParams,
    RegimeError,
    epsilon_expansion,
    hardy_constant,
    lambda0,
    operator_normalization,
    power_coefficient,
)
from .fraclap import (
    OperatorMatrix,
    RadialFunction,
    RadialGrid,
    TailKind,
    TailSpec,
    angular_kernel,
    apply,
    assemble,
    quadratic_form,
    sphere_area,
)
from .gelfand import (
    Branch,
    BranchPoint,
    BranchTraceError,
    ContinuationConfig,
    EigenSolveError,
    InfeasibleError,
    NoConvergenceError,
    SingularProfileReport,
    proof_test_function,
    singular_profile_diagnostic,
    singular_solution_residual,
    solve_at_peak,
    stability_eigenvalue,
    stability_inequality_check,
    torsion_center_value,
    trace_branch,
)
from .specfun import log_gamma
from .threshold import (
    Regime,
    RegularityVerdict,
    ThresholdRow,
    classify,
    critical_s,
    margin,
    threshold_table,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "DomainError",
    "ProblemParams",
    "RegimeError",
    "epsilon_expansion",
    "hardy_constant",
    "lambda0",
    "operator_normalization",
    "power_coefficient",
    "OperatorMatrix",
    "RadialFunction",
    "RadialGrid",
    "TailKind",
    "TailSpec",
    "angular_kernel",
    "apply",
    "assemble",
    "quadratic_form",
    "sphere_area",
    "Branch",
    "BranchPoint",
    "BranchTraceError",
    "ContinuationConfig",
    "EigenSolveError",
    "InfeasibleError",
    "NoConvergenceError",
    "SingularProfileReport",
    "proof_test_function",
    "singular_profile_diagnostic",
    "singular_solution_residual",
    "solve_at_peak",
    "stability_eigenvalue",
    "stability_inequality_check",
    "torsion_center_value",
    "trace_branch",
    "log_gamma",
    "Regime",
    "RegularityVerdict",
    "ThresholdRow",
    "classify",
    "critical_s",
    "margin",
    "threshold_table",
]
