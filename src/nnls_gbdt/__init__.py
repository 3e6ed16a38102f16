"""Explicit solutions of the nonlocal matrix NLS equation.

The package constructs solutions of

    i u_t - u_xx + 2 sigma u(x, t) u(-x, t)^* u(x, t) = 0,   sigma = -1 or +1,

through an iterated Backlund-Darboux transformation with a zero seed,
together with Darboux matrices, wave functions, closed-form reference
solutions, genus-one theta-function solutions of the stationary reduction,
and finite-difference verification of every constructed object.

Modules
-------
numkit
    Matrix exponentials, Sylvester solvers, eigenvalues, quadrature.
gbdt_core
    Transformation data, grids, fields, Darboux matrices, wave functions.
oracles
    Independent closed-form solutions used as cross-checks.
verify
    Residual reports for the PDE, the coupling identity, the closed forms,
    the Darboux pair and the ODE pair, the admissibility of a triple, and
    the verdict of every check.
ag_theta
    Theta functions, branch-point data, and the stationary reduction.
cli
    Scenario runner producing CSV fields and JSON reports.
"""

from .errors import (
    AsymmetricGrid,
    BadTau,
    DarbouxMismatch,
    DegenerateCurve,
    DegenerateS,
    DimensionMismatch,
    GridTooSmall,
    InvalidParams,
    InvalidRange,
    NnlsGbdtError,
    NoConvergence,
    NonSquare,
    Overflow,
    QuadratureFailure,
    RangeExceeded,
    SchemaError,
    SingularPoint,
    SpectralClash,
    SpectralPole,
    ThetaZero,
)
from .gbdt_core import (
    GbdtTriple,
    Grid,
    SolutionField,
    complete_triple,
    darboux_at,
    pi_at,
    s_at,
    s_via_integration,
    solution_field,
    u_tilde_at,
    wave_at,
    xi_tilde_at,
)
from .verify import validate_triple

__version__ = "0.1.0"

__all__ = [
    "AsymmetricGrid",
    "BadTau",
    "DarbouxMismatch",
    "DegenerateCurve",
    "DegenerateS",
    "DimensionMismatch",
    "GbdtTriple",
    "Grid",
    "GridTooSmall",
    "InvalidParams",
    "InvalidRange",
    "NnlsGbdtError",
    "NoConvergence",
    "NonSquare",
    "Overflow",
    "QuadratureFailure",
    "RangeExceeded",
    "SchemaError",
    "SingularPoint",
    "SolutionField",
    "SpectralClash",
    "SpectralPole",
    "ThetaZero",
    "complete_triple",
    "darboux_at",
    "pi_at",
    "s_at",
    "s_via_integration",
    "solution_field",
    "u_tilde_at",
    "validate_triple",
    "wave_at",
    "xi_tilde_at",
    "__version__",
]
