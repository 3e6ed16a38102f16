"""Residual checks of constructed solutions, and the verdicts drawn from them.

Every check in this module reports a residual that an exact object would
drive to zero: the evolution equation itself, the algebraic coupling
identity and the mirror symmetry, both stated on the reduced matrix M with
S(x, t) = E(x, t) M E(-x, t)*, the reduction tying the two triangular
blocks together, the deviation from a closed-form family, the Darboux pair
w_A w_B = I with its reduction, and the pair of first-order systems
satisfied by the wave function.  Derivatives are second-order central
differences, so refining the grid by two should shrink those residuals by
about four; the pde record turns its levels' residuals into convergence
orders and decides on them.

gbdt_core constructs; the admissibility of a triple (``validate_triple``)
and the verdicts on what it built are decided here. That includes every
tolerance and verdict of ``nnls-gbdt run``, whose check records of
report.json are built here, with ``json_number`` the one rule for writing
a non-finite number. The one fact gbdt_core also asserts is the Darboux
pair's, in darboux_at; darboux_residual reports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from . import gbdt_core, numkit
from .errors import GridTooSmall
from .gbdt_core import GbdtTriple, Grid, SolutionField

#: Bound on the finite-difference residuals of the wave function's two
#: systems and of ag_theta's stationary equations.
DEFAULT_PDE_TOL = 0.05

#: Bound on algebraic identities evaluated pointwise.
DEFAULT_IDENTITY_TOL = 1e-10

#: Relative tolerance of the oracle comparison.
ORACLE_TOL = 1e-9

#: Convergence-order band accepted by the pde check.
ORDER_LOW = 1.7
ORDER_HIGH = 2.3

#: Residual size under which the pde check passes without an order estimate.
EXACT_FLOOR = 1e-9

#: Central-difference step of wave_ode_residual; it also compares the
#: residual at half this step.
WAVE_STEP = 1e-3

#: Floor of a relative residual's scale, as a fraction of the largest scale
#: over the nodes compared, so that zeros of the compared field do not
#: inflate the relative error.
SCALE_FLOOR = 1e-6

#: Closed-form u at the (x, t) node arrays, with the mask of nodes where the
#: closed form is singular: one value per node for a scalar family, an
#: (m1, m2) matrix per node otherwise.
OracleFn = Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]


def json_number(value) -> Union[None, float, str]:
    """``value`` as a float for report.json, or its repr when it is not
    finite, since JSON has no infinity or NaN. None stays None."""
    if value is None:
        return None
    value = float(value)
    return value if np.isfinite(value) else repr(value)


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of a single residual check.

    ``residual`` is the maximum over all evaluated points, ``order`` the
    estimated convergence order when two resolutions were compared, and
    ``points_used`` / ``points_skipped`` count interior stencils that were
    evaluated or dropped because they touch a singular point. ``passed``
    and ``tolerance`` are None on a report that carries no verdict of its
    own: a pde level, which its record judges by convergence order.
    """

    name: str
    hx: float
    ht: float
    residual: float
    order: Optional[float]
    passed: Optional[bool] = None
    tolerance: Optional[float] = None
    points_used: int = 0
    points_skipped: int = 0

    def to_json_dict(self) -> dict:
        encoded = {
            "name": self.name,
            "hx": json_number(self.hx),
            "ht": json_number(self.ht),
            "residual": json_number(self.residual),
            "order": json_number(self.order),
            "points_used": int(self.points_used),
            "points_skipped": int(self.points_skipped),
        }
        if self.tolerance is not None:
            encoded["passed"] = bool(self.passed)
            encoded["tolerance"] = json_number(self.tolerance)
        return encoded


@dataclass(frozen=True)
class ValidationEntry:
    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    """Named residuals of the admissibility checks for a triple."""

    entries: tuple

    def entry(self, name: str) -> ValidationEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        """True iff every entry is within tolerance, the spectral margin's
        included: a grid needs the Sylvester route, though pointwise
        evaluation falls back to integration on a clashing spectrum."""
        return all(e.passed for e in self.entries)


def validate_triple(candidate: GbdtTriple) -> ValidationReport:
    """Check Hermiticity of S0, invertibility (|det S0| / max(1, ||S0||)^n
    above gbdt_core.DET_FLOOR), and the coupling identity.

    Also reports the spectral-disjointness margin min |lambda_i + conj(lambda_j)|
    of A, which decides whether the pointwise Sylvester route is usable.
    Raises DimensionMismatch for inconsistent shapes (checked at triple
    construction); never raises on numerical failure, which is what the
    report is for.
    """
    t = candidate
    a_h = t.A.conj().T
    norm_s = float(np.linalg.norm(t.S0))
    norm_a = float(np.linalg.norm(t.A))
    rhs = t.coupling_rhs()

    herm = float(np.linalg.norm(t.S0 - t.S0.conj().T))
    herm_tol = 1e-12 * max(1.0, norm_s)

    det_rel = gbdt_core.relative_det(t.S0)
    det_floor = gbdt_core.DET_FLOOR

    ident = float(np.linalg.norm(t.A @ t.S0 + t.S0 @ a_h - rhs))
    ident_tol = 1e-10 * max(1.0, 2.0 * norm_a * norm_s + float(np.linalg.norm(rhs)))

    margin = numkit.spectral_margin(t.A, a_h)
    margin_tol = numkit.SPECTRAL_CLASH_FACTOR * 2.0 * norm_a

    entries = (
        ValidationEntry("hermiticity", herm, herm_tol, herm <= herm_tol),
        ValidationEntry("determinant", det_rel, det_floor, det_rel > det_floor),
        ValidationEntry("identity", ident, ident_tol, ident <= ident_tol),
        ValidationEntry("sylvester_margin", margin, margin_tol, margin > margin_tol),
    )
    return ValidationReport(entries)


def _level(
    name: str, grid: Grid, residual: float, used: int, skipped: int = 0,
    tolerance: Optional[float] = None,
) -> ResidualReport:
    """Report of one check on one grid level, passed when ``residual`` is at
    most ``tolerance``; with no tolerance it carries no verdict."""
    return ResidualReport(
        name=name,
        hx=grid.hx,
        ht=grid.ht,
        residual=residual,
        order=None,
        passed=None if tolerance is None else bool(residual <= tolerance),
        tolerance=tolerance,
        points_used=used,
        points_skipped=skipped,
    )


def _at_point(
    name: str, residual: float, tolerance: float,
    hx: float = 0.0, ht: float = 0.0, order: Optional[float] = None,
) -> ResidualReport:
    """Report of one check at a single point, passed when ``residual`` is at
    most ``tolerance``; hx and ht are its finite-difference steps, if any."""
    return ResidualReport(
        name=name, hx=hx, ht=ht, residual=residual, order=order,
        passed=bool(residual <= tolerance), tolerance=tolerance, points_used=1,
    )


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


def nnls_residual(field: SolutionField, sigma: int) -> ResidualReport:
    """Residual of the evolution equation on the field's grid.

    The nonlocal cubic term couples each point to its spatial mirror, so a
    stencil is evaluated only when the five difference points and the
    mirror point all avoid the singular mask.  The level carries no
    verdict: pde_record judges the levels together.  Raises GridTooSmall
    when either axis has fewer than five nodes.
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
    cubic = numkit.stack_matmul(
        numkit.stack_matmul(u_c, np.conj(np.swapaxes(u_mir, -1, -2))), u_c
    )
    res = 1j * u_t - u_xx + 2.0 * sigma * cubic

    valid = _interior_validity(mask)
    used = int(np.count_nonzero(valid))
    if used == 0:
        residual = float("inf")
    else:
        residual = float(np.max(np.abs(res[valid])))
    return _level("pde", grid, residual, used, int(valid.size - used))


def _node_last(stack: np.ndarray) -> np.ndarray:
    """(r, c, nodes) view of an (nx, nt, r, c) stack, or a copy when its
    node axes do not merge; a field's stacks are held node-last, so for
    them it is a view."""
    r, c = stack.shape[-2:]
    return np.moveaxis(stack, (-2, -1), (0, 1)).reshape(r, c, -1)


def _node_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm at each node of an (r, c, nodes...) stack, as a flat
    array: the squares of the real and imaginary parts summed over the r c
    matrix entries, one multiply-add per entry over the whole row of
    nodes."""
    rows = stack.shape[0] * stack.shape[1]
    parts = np.ascontiguousarray(stack).reshape(rows, -1).view(np.float64)
    squares = np.einsum("ik,ik->k", parts, parts)
    return np.sqrt(squares[0::2] + squares[1::2])


def identity_residual(triple: GbdtTriple, field: SolutionField) -> ResidualReport:
    """Pointwise relative residual of A M + M A^* against the coupling term.

    M = E(x, t)^{-1} S E(-x, t)^{-*} satisfies
    A M + M A^* = theta1 theta1^* + (-1)^kappa K K(-x, t)^*. The coupling
    term is formed here from the field's right side K, while the field
    built M from the origin parts without it, so the check is independent
    of the route that built M. Purely algebraic, so every grid point
    participates regardless of the singular mask. With the node axes last,
    A M is one matrix product over all nodes and M A^* one per row of M;
    K K(-x, t)^* is numkit.stack_matmul's multiply-adds. The difference is
    taken in place, so the check holds two stacks of M besides M.
    """
    a = triple.A
    n = a.shape[0]
    m = _node_last(field.M)
    k = field.K
    rhs = _node_last(numkit.stack_matmul(k, np.conj(np.swapaxes(k[::-1], -1, -2))))
    gram = (triple.theta1 @ np.conj(triple.theta1.T))[..., None]
    if triple.kappa == 1:
        np.subtract(gram, rhs, out=rhs)
    else:
        rhs += gram
    # (A M)[i, j] = a[i] . M[:, j]; (M A*)[i, j] = conj(a[j]) . M[i, :]
    lhs = (a @ m.reshape(n, -1)).reshape(m.shape)
    lhs += np.conj(a) @ m
    lhs -= rhs
    diff = _node_norms(lhs)
    del lhs
    scale = 2.0 * np.linalg.norm(a) * _node_norms(m) + _node_norms(rhs)
    rel = diff / np.maximum(scale, 1e-300)
    return _level(
        "identity", field.grid, float(np.max(rel)), int(rel.size),
        tolerance=DEFAULT_IDENTITY_TOL,
    )


def hermitian_mirror_residual(field: SolutionField) -> ResidualReport:
    """Largest relative deviation of M(-x, t) from M(x, t)^* over the nodes.

    S(-x, t) = S(x, t)^* holds exactly when M does. At each node the
    Frobenius norm of M(-x, t) - M(x, t)^* is divided by that of M(x, t),
    so the bound holds whatever the magnitude of M.
    """
    m = np.moveaxis(field.M, (-2, -1), (0, 1))
    gap = np.empty(m.shape, dtype=np.complex128)
    np.conjugate(np.swapaxes(m, 0, 1), out=gap)
    np.subtract(m[:, :, ::-1], gap, out=gap)
    rel = _node_norms(gap) / np.maximum(_node_norms(m), 1e-300)
    return _level(
        "mirror", field.grid, float(np.max(rel)), int(rel.size),
        tolerance=DEFAULT_IDENTITY_TOL,
    )


def reduction_residual(field: SolutionField, sigma: int) -> ResidualReport:
    """Relative deviation of the lower coupling block from -sigma u(-x, t)^*.

    The lower block is the field's stored ``lower``, taken from the same
    solve M X = [theta1 K] as u, and is compared against the reflected
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
    return _level(
        "reduction", field.grid, residual, used, int(keep.size - used),
        DEFAULT_IDENTITY_TOL,
    )


def oracle_residual(field: SolutionField, oracle: OracleFn) -> ResidualReport:
    """Largest relative deviation of the field from its closed form.

    The closed-form values are reshaped to the shape of u, so a scalar
    family's one value per node compares as a 1 x 1 matrix. Nodes masked
    in the field or singular in the closed form are skipped. The comparison
    scale at each node is the largest oracle entry there, floored as in
    ``floored_relative`` so that zeros of the solution do not inflate the
    relative error. Passes at ORACLE_TOL.
    """
    grid = field.grid
    x, t = np.meshgrid(grid.x_values, grid.t_values, indexing="ij")
    expected, singular = oracle(x, t)
    used = ~(field.singular_mask | singular)
    points_used = int(np.count_nonzero(used))
    if points_used == 0:
        residual = float("inf")
    else:
        expected = np.reshape(expected, field.u.shape)[used]
        scale = np.max(np.abs(expected), axis=(-2, -1))
        diff = np.max(np.abs(field.u[used] - expected), axis=(-2, -1))
        residual = floored_relative(diff, scale)
    return _level(
        "oracle", grid, residual, points_used, used.size - points_used,
        ORACLE_TOL,
    )


def pde_record(levels: List[ResidualReport]) -> dict:
    """The pde check's record from its per-level reports, coarsest first.

    Passes when every successive halving shows an order in the band
    [ORDER_LOW, ORDER_HIGH], or when every residual is at most EXACT_FLOOR,
    so no order is measurable. The record states the orders, the band and
    the floor; its levels carry residuals and counts only.
    """
    residuals = [level.residual for level in levels]
    orders = [
        estimate_order(coarse, fine)
        for coarse, fine in zip(residuals, residuals[1:])
    ]
    all_tiny = all(r <= EXACT_FLOOR for r in residuals)
    orders_ok = bool(orders) and all(
        ORDER_LOW <= order <= ORDER_HIGH for order in orders
    )
    return {
        "name": "pde",
        "levels": [level.to_json_dict() for level in levels],
        "orders": [json_number(order) for order in orders],
        "order_band": [ORDER_LOW, ORDER_HIGH],
        "exact_floor": EXACT_FLOOR,
        "passed": all_tiny or orders_ok,
    }


def level_record(name: str, levels: List[ResidualReport]) -> dict:
    """Record of a check whose levels each carry a verdict: it passes when
    every level does."""
    return {
        "name": name,
        "levels": [level.to_json_dict() for level in levels],
        "passed": all(level.passed for level in levels),
    }


def constraints_record(report: ValidationReport) -> dict:
    """Record of the theta data's reality constraints, one entry each."""
    return {
        "name": "constraints",
        "entries": [
            {
                "name": entry.name,
                "value": json_number(entry.value),
                "tolerance": entry.tolerance,
                "passed": entry.passed,
            }
            for entry in report.entries
        ],
        "passed": report.passed,
    }


def darboux_residual(
    triple: GbdtTriple, x: float, t: float, z: complex
) -> Tuple[ResidualReport, ResidualReport]:
    """Reports ``darboux_inverse``, ||w_A w_B - I|| / max(1, ||w_A|| ||w_B||),
    and ``darboux_reduction``, ||w_B - j^kappa w_A(-x,t,-conj z)* j^kappa|| /
    max(1, ||w_B||), at (x, t, z), passed at gbdt_core.DARBOUX_TOL: the
    residuals of gbdt_core.darboux_gaps, which darboux_at asserts. S(-x, t) is
    propagated on its own, never taken as S(x, t)*. Raises SpectralPole and
    SingularPoint as darboux_at."""
    _, inverse, reduction = gbdt_core.darboux_gaps(triple, x, t, z)
    return (
        _at_point("darboux_inverse", inverse, gbdt_core.DARBOUX_TOL),
        _at_point("darboux_reduction", reduction, gbdt_core.DARBOUX_TOL),
    )


def _wave_residuals(
    triple: GbdtTriple, x: float, t: float, z: complex, h: float,
    centre: gbdt_core.SpectralSample,
) -> Tuple[float, float]:
    """Residuals of the x and t systems at central step h, from darboux_at
    samples at (x +- h, t) and (x, t +- h); the x samples also give the x
    derivative of the potential."""
    j = triple.j
    w0, xi = centre.wave, centre.xi
    east = gbdt_core.darboux_at(triple, x + h, t, z)
    west = gbdt_core.darboux_at(triple, x - h, t, z)
    north = gbdt_core.darboux_at(triple, x, t + h, z)
    south = gbdt_core.darboux_at(triple, x, t - h, z)

    d_w = (east.wave - west.wave) / (2.0 * h)
    g = -1j * z * j - j @ xi
    res_x = float(np.max(np.abs(d_w - g @ w0)))

    d_w = (north.wave - south.wave) / (2.0 * h)
    xi_x = (east.xi - west.xi) / (2.0 * h)
    f = 2j * z**2 * j + 2.0 * z * (j @ xi) - 1j * (j @ xi @ xi - xi_x)
    res_t = float(np.max(np.abs(d_w - f @ w0)))
    return res_x, res_t


def wave_ode_residual(
    triple: GbdtTriple, x: float, t: float, z: complex
) -> Tuple[ResidualReport, ResidualReport]:
    """Residuals of the two linear systems satisfied by the wave function.

    The x system differentiates along x at fixed t, the t system along t at
    fixed x; the coefficient of the t system needs the x derivative of the
    potential, taken with the same central step.  Each system is evaluated
    at steps WAVE_STEP and WAVE_STEP / 2 so the pair of reports carries
    convergence orders.
    """
    z = complex(z)
    h = WAVE_STEP
    # the sample at (x, t) gives the wave function and the potential for
    # both step sizes
    centre = gbdt_core.darboux_at(triple, x, t, z)
    rx_h, rt_h = _wave_residuals(triple, x, t, z, h, centre)
    rx_h2, rt_h2 = _wave_residuals(triple, x, t, z, h / 2.0, centre)
    return (
        _at_point("wave_x", rx_h, DEFAULT_PDE_TOL, hx=h, order=estimate_order(rx_h, rx_h2)),
        _at_point("wave_t", rt_h, DEFAULT_PDE_TOL, ht=h, order=estimate_order(rt_h, rt_h2)),
    )
