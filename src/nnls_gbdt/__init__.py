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
    the Darboux pair, the ODE pair and the stationary equations, the
    admissibility of a triple and of theta data, and the verdict of every
    check.
ag_theta
    Theta functions, branch-point data, and the stationary reduction: it
    builds and measures, and imports no other module of the package but
    errors.
cli
    Scenario runner producing CSV fields and JSON reports.
"""

import importlib

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

#: Names re-exported from gbdt_core and verify, imported on first access so
#: that importing errors, numkit, oracles or ag_theta alone loads neither.
_LAZY = dict.fromkeys(
    "GbdtTriple Grid SolutionField complete_triple darboux_at pi_at s_at "
    "s_via_integration solution_field spectral_sample spectral_samples u_tilde_at wave_at "
    "xi_tilde_at".split(),
    "gbdt_core",
) | {"validate_triple": "verify"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


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
    "spectral_sample",
    "spectral_samples",
    "u_tilde_at",
    "validate_triple",
    "wave_at",
    "xi_tilde_at",
    "__version__",
]
