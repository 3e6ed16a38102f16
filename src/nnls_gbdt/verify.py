"""Finite-difference verification of constructed solutions.

Every check in this module reports a residual that an exact object would
drive to zero: the evolution equation itself, the algebraic coupling
identity, the mirror symmetry of S, the reduction tying the two triangular
blocks together, and the pair of first-order systems satisfied by the wave
function.  Residuals are measured with second-order central differences, so
refining the grid by two should shrink them by about four; the reported
convergence order makes that checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import gbdt_core
from .errors import GridTooSmall
from .gbdt_core import GbdtTriple, SolutionField

#: Default bound on finite-difference residuals of grid fields.
DEFAULT_PDE_TOL = 0.05

#: Default bound on algebraic identities evaluated pointwise.
DEFAULT_IDENTITY_TOL = 1e-10

#: Floor of a relative residual's scale, as a fraction of the largest scale
#: over the nodes compared, so that zeros of the compared field do not
#: inflate the relative error.
SCALE_FLOOR = 1e-6


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of a single residual check.

    ``residual`` is the maximum over all evaluated points, ``order`` the
    estimated convergence order when two resolutions were compared, and
    ``points_used`` / ``points_skipped`` count interior stencils that were
    evaluated or dropped because they touch a singular point.
    """

    name: str
    hx: float
    ht: float
    residual: float
    order: Optional[float]
    passed: bool
    tolerance: float
    points_used: int = 0
    points_skipped: int = 0

    def to_json_dict(self) -> dict:
        def _num(value):
            if value is None:
                return None
            value = float(value)
            return value if np.isfinite(value) else repr(value)

        return {
            "name": self.name,
            "hx": _num(self.hx),
            "ht": _num(self.ht),
            "residual": _num(self.residual),
            "order": _num(self.order),
            "passed": bool(self.passed),
            "tolerance": _num(self.tolerance),
            "points_used": int(self.points_used),
            "points_skipped": int(self.points_skipped),
        }


def floored_relative(diff: np.ndarray, scale: np.ndarray) -> float:
    """Largest ``diff / scale`` over the nodes given, each scale raised to
    at least ``SCALE_FLOOR`` times the largest of them."""
    floor = max(SCALE_FLOOR * float(np.max(scale)), 1e-300)
    return float(np.max(diff / np.maximum(scale, floor)))


def estimate_order(coarse: float, fine: float) -> float:
    """Convergence order from residuals at spacing h and h/2.

    Equal residuals (including two zeros) give 0.0; a residual that
    vanishes on one side only gives a signed infinity.
    """
    coarse = float(coarse)
    fine = float(fine)
    if coarse == fine:
        return 0.0
    if coarse == 0.0:
        return float("-inf")
    if fine == 0.0:
        return float("inf")
    return float(np.log2(coarse / fine))


def _interior_validity(mask: np.ndarray) -> np.ndarray:
    """Interior points whose five-point stencil and mirror are all usable."""
    usable = ~mask & ~mask[::-1, :]
    valid = usable[1:-1, 1:-1].copy()
    valid &= ~mask[:-2, 1:-1]
    valid &= ~mask[2:, 1:-1]
    valid &= ~mask[1:-1, :-2]
    valid &= ~mask[1:-1, 2:]
    return valid


def nnls_residual(
    field: SolutionField, sigma: int, tol: float = DEFAULT_PDE_TOL
) -> ResidualReport:
    """Residual of the evolution equation on the field's grid.

    The nonlocal cubic term couples each point to its spatial mirror, so a
    stencil is evaluated only when the five difference points and the
    mirror point all avoid the singular mask.  Raises GridTooSmall when
    either axis has fewer than five nodes.
    """
    grid = field.grid
    if grid.nx < 5 or grid.nt < 5:
        raise GridTooSmall(
            f"need at least 5 nodes per axis, got {grid.nx} x {grid.nt}"
        )
    u = field.u
    mask = field.singular_mask
    hx, ht = grid.hx, grid.ht

    u_c = u[1:-1, 1:-1]
    u_mir = u[::-1, :][1:-1, 1:-1]
    u_t = (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * ht)
    u_xx = (u[2:, 1:-1] - 2.0 * u_c + u[:-2, 1:-1]) / hx**2
    cubic = u_c @ np.conj(np.swapaxes(u_mir, -1, -2)) @ u_c
    res = 1j * u_t - u_xx + 2.0 * sigma * cubic

    valid = _interior_validity(mask)
    used = int(np.count_nonzero(valid))
    skipped = int(valid.size - used)
    if used == 0:
        residual = float("inf")
    else:
        residual = float(np.max(np.abs(res[valid])))
    return ResidualReport(
        name="pde",
        hx=hx,
        ht=ht,
        residual=residual,
        order=None,
        passed=bool(residual <= tol),
        tolerance=tol,
        points_used=used,
        points_skipped=skipped,
    )


def identity_residual(
    triple: GbdtTriple, field: SolutionField, tol: float = DEFAULT_IDENTITY_TOL
) -> ResidualReport:
    """Pointwise relative residual of A S + S A^* against the coupling term.

    The coupling term is formed here from the field's Pi blocks, while the
    field propagated S from the origin parts without it, so the check is
    independent of the route that built S. Purely algebraic, so every grid
    point participates regardless of the singular mask. A S and S A^* are
    one matrix product each over the whole stack, read as
    ``(nodes * n, n)`` rows: A S as the transpose of S^T A^T, whose
    transposed copy of S is released before S A^* is formed. The difference
    is taken in place, so the check holds about three stacks of S at once.
    """
    pi1, pi2 = field.pi1, field.pi2
    a = triple.A
    s = field.S
    n = a.shape[0]
    rhs = gbdt_core.coupling_term(triple.kappa, pi1, pi2, pi1[::-1], pi2[::-1])
    s_t = np.swapaxes(s, -1, -2).reshape(-1, n)
    lhs = np.swapaxes((s_t @ a.T).reshape(s.shape), -1, -2)
    del s_t
    lhs += (s.reshape(-1, n) @ a.conj().T).reshape(s.shape)
    lhs -= rhs
    diff = np.linalg.norm(lhs, axis=(-2, -1))
    del lhs
    scale = (
        2.0 * np.linalg.norm(a) * np.linalg.norm(s, axis=(-2, -1))
        + np.linalg.norm(rhs, axis=(-2, -1))
    )
    rel = diff / np.maximum(scale, 1e-300)
    residual = float(np.max(rel))
    return ResidualReport(
        name="identity",
        hx=field.grid.hx,
        ht=field.grid.ht,
        residual=residual,
        order=None,
        passed=bool(residual <= tol),
        tolerance=tol,
        points_used=int(rel.size),
    )


def hermitian_mirror_residual(
    field: SolutionField, tol: float = DEFAULT_IDENTITY_TOL
) -> ResidualReport:
    """Largest relative deviation of S(-x, t) from S(x, t)^* over the nodes.

    At each node the Frobenius norm of S(-x, t) - S(x, t)^* is divided by
    that of S(x, t), so the bound holds whatever the magnitude of S.
    """
    s = field.S
    diff = np.linalg.norm(
        s[::-1] - np.conj(np.swapaxes(s, -1, -2)), axis=(-2, -1)
    )
    rel = diff / np.maximum(np.linalg.norm(s, axis=(-2, -1)), 1e-300)
    residual = float(np.max(rel))
    return ResidualReport(
        name="mirror",
        hx=field.grid.hx,
        ht=field.grid.ht,
        residual=residual,
        order=None,
        passed=bool(residual <= tol),
        tolerance=tol,
        points_used=int(rel.size),
    )


def reduction_residual(
    field: SolutionField, sigma: int, tol: float = DEFAULT_IDENTITY_TOL
) -> ResidualReport:
    """Relative deviation of the lower coupling block from -sigma u(-x, t)^*.

    The lower block is the field's stored ``lower``, taken from the same
    solve S X = [Pi1 Pi2] as u, and is compared against the reflected
    adjoint of the field itself on the nodes where neither x nor -x is
    masked. Each node's Frobenius gap is divided by the norm of u(-x, t)
    there, floored as in ``floored_relative``, so the bound holds whatever
    the magnitude of u. Raises ValueError for a sigma other than -1 or +1.
    """
    if sigma not in (-1, 1):
        raise ValueError(f"sigma must be -1 or +1, got {sigma!r}")
    mask = field.singular_mask
    keep = ~mask & ~mask[::-1, :]
    used = int(np.count_nonzero(keep))
    if used == 0:
        residual = float("inf")
    else:
        target = -sigma * np.conj(np.swapaxes(field.u[::-1][keep], -1, -2))
        gap = np.linalg.norm(field.lower[keep] - target, axis=(-2, -1))
        residual = floored_relative(gap, np.linalg.norm(target, axis=(-2, -1)))
    return ResidualReport(
        name="reduction",
        hx=field.grid.hx,
        ht=field.grid.ht,
        residual=residual,
        order=None,
        passed=bool(residual <= tol),
        tolerance=tol,
        points_used=used,
        points_skipped=int(keep.size - used),
    )


def _wave_x_residual(
    triple: GbdtTriple, x: float, t: float, z: complex, h: float,
    w0: np.ndarray, xi: np.ndarray,
) -> float:
    j = triple.j
    d_w = (
        gbdt_core.wave_at(triple, x + h, t, z)
        - gbdt_core.wave_at(triple, x - h, t, z)
    ) / (2.0 * h)
    g = -1j * z * j - j @ xi
    return float(np.max(np.abs(d_w - g @ w0)))


def _wave_t_residual(
    triple: GbdtTriple, x: float, t: float, z: complex, h: float,
    w0: np.ndarray, xi: np.ndarray,
) -> float:
    j = triple.j
    d_w = (
        gbdt_core.wave_at(triple, x, t + h, z)
        - gbdt_core.wave_at(triple, x, t - h, z)
    ) / (2.0 * h)
    xi_x = (
        gbdt_core.xi_tilde_at(triple, x + h, t)
        - gbdt_core.xi_tilde_at(triple, x - h, t)
    ) / (2.0 * h)
    f = 2j * z**2 * j + 2.0 * z * (j @ xi) - 1j * (j @ xi @ xi - xi_x)
    return float(np.max(np.abs(d_w - f @ w0)))


def wave_ode_residual(
    triple: GbdtTriple,
    x: float,
    t: float,
    z: complex,
    h: float = 1e-3,
    tol: float = DEFAULT_PDE_TOL,
) -> Tuple[ResidualReport, ResidualReport]:
    """Residuals of the two linear systems satisfied by the wave function.

    The x system differentiates along x at fixed t, the t system along t at
    fixed x; the coefficient of the t system needs the x derivative of the
    potential, taken with the same central step.  Each system is evaluated
    at steps h and h/2 so the pair of reports carries convergence orders.
    """
    z = complex(z)
    # the wave function and the potential at (x, t) serve all four stencils
    w0 = gbdt_core.wave_at(triple, x, t, z)
    xi = gbdt_core.xi_tilde_at(triple, x, t)
    rx_h = _wave_x_residual(triple, x, t, z, h, w0, xi)
    rx_h2 = _wave_x_residual(triple, x, t, z, h / 2.0, w0, xi)
    rt_h = _wave_t_residual(triple, x, t, z, h, w0, xi)
    rt_h2 = _wave_t_residual(triple, x, t, z, h / 2.0, w0, xi)
    report_x = ResidualReport(
        name="wave_x",
        hx=h,
        ht=0.0,
        residual=rx_h,
        order=estimate_order(rx_h, rx_h2),
        passed=bool(rx_h <= tol),
        tolerance=tol,
        points_used=1,
    )
    report_t = ResidualReport(
        name="wave_t",
        hx=0.0,
        ht=h,
        residual=rt_h,
        order=estimate_order(rt_h, rt_h2),
        passed=bool(rt_h <= tol),
        tolerance=tol,
        points_used=1,
    )
    return report_x, report_t
